// Package stats provides the small measurement utilities used by the CLI
// tools and experiment harness: a log-bucketed latency histogram with
// quantile estimates, allocation-free on the hot path and safe for concurrent
// use, and the writer of the Prometheus text format the servers export.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"
)

// Histogram accumulates durations into power-of-two nanosecond buckets
// (bucket i covers [2^i, 2^(i+1)) ns), giving ~factor-2 quantile resolution
// over twelve orders of magnitude with a fixed 64-counter footprint.
type Histogram struct {
	mu      sync.Mutex
	buckets [64]uint64
	count   uint64
	sum     time.Duration // saturates at math.MaxInt64 instead of wrapping
	min     time.Duration
	max     time.Duration
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx := 0
	if d > 0 {
		idx = bits.Len64(uint64(d)) - 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[idx]++
	h.count++
	if h.sum > math.MaxInt64-d {
		h.sum = math.MaxInt64
	} else {
		h.sum += d
	}
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the average observed duration (0 if empty).
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Max returns the largest observed duration (0 if empty).
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns an upper-bound estimate of the q-quantile (q in [0,1]):
// the upper edge of the bucket containing the q-th observation, clamped to
// the observed maximum. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	if math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	seen := uint64(0)
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			upper := BucketUpper(i)
			if upper > h.max && h.max > 0 {
				upper = h.max
			}
			if upper < h.min {
				upper = h.min
			}
			return upper
		}
	}
	return h.max
}

// HistogramSnapshot is a consistent copy of a Histogram's state, taken under
// the histogram's lock. Bucket i counts observations in [2^i, 2^(i+1)) ns
// (bucket 0 additionally holds zero durations); BucketUpper converts an index
// to its exclusive upper edge. The snapshot carries everything a cumulative
// exposition format (e.g. Prometheus text histograms) needs: per-bucket
// counts, total count, and the duration sum.
type HistogramSnapshot struct {
	Count    uint64
	Sum      time.Duration
	Min, Max time.Duration
	Buckets  [64]uint64
}

// BucketUpper returns the exclusive upper edge of histogram bucket i. The
// last bucket's edge saturates at the maximum Duration.
func BucketUpper(i int) time.Duration {
	if i < 0 {
		return 0
	}
	if i >= 62 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(1) << uint(i+1)
}

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
		Buckets: h.buckets,
	}
}

// String renders a one-line summary suitable for CLI output.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
		h.Count(), h.Mean().Round(time.Microsecond),
		h.Quantile(0.5).Round(time.Microsecond),
		h.Quantile(0.9).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond),
		h.Max().Round(time.Microsecond))
}
