package stats

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Error("empty histogram not zeroed")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{1, 2, 4, 8, 16} {
		h.Observe(d * time.Microsecond)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	wantMean := time.Duration(31) * time.Microsecond / 5
	if h.Mean() != wantMean {
		t.Errorf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	if s := h.Snapshot(); s.Min != time.Microsecond || s.Max != 16*time.Microsecond {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	h.Observe(-5) // clamps to zero
	if s := h.Snapshot(); s.Min != 0 {
		t.Errorf("negative observation: Min = %v", s.Min)
	}
}

// The top bucket's upper edge is 2^63 ns, one past the largest Duration: the
// quantile there is the observed maximum, not a wrapped edge.
func TestHistogramQuantileTopBucket(t *testing.T) {
	var h Histogram
	h.Observe(time.Nanosecond)
	h.Observe(math.MaxInt64)
	if got := h.Quantile(1); got != math.MaxInt64 {
		t.Errorf("Quantile(1) = %v, want the maximum %v", got, time.Duration(math.MaxInt64))
	}
	if got := h.Quantile(0.5); got != BucketUpper(0) {
		t.Errorf("Quantile(0.5) = %v, want bucket 0's edge %v", got, BucketUpper(0))
	}
}

// Quantile estimates must bracket the true quantile within one bucket
// (factor 2).
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	var all []time.Duration
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Intn(1_000_000)) * time.Nanosecond
		all = append(all, d)
		h.Observe(d)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		truth := all[int(math.Ceil(q*float64(len(all))))-1]
		got := h.Quantile(q)
		if got < truth {
			t.Errorf("q=%v: estimate %v below true %v", q, got, truth)
		}
		if got > truth*2+2 {
			t.Errorf("q=%v: estimate %v more than 2x true %v", q, got, truth)
		}
	}
	// Clamping of out-of-range q.
	if h.Quantile(-1) == 0 || h.Quantile(2) == 0 {
		t.Error("clamped quantiles returned zero")
	}
	if h.Quantile(math.NaN()) != 0 {
		t.Error("NaN quantile should be 0")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	s := h.String()
	if s == "" || h.Count() != 1 {
		t.Errorf("String = %q", s)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	durations := []time.Duration{0, 1, 3, 1024, 1500, time.Millisecond}
	for _, d := range durations {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(durations)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(durations))
	}
	var sum time.Duration
	for _, d := range durations {
		sum += d
	}
	if s.Sum != sum || s.Min != 0 || s.Max != time.Millisecond {
		t.Errorf("Sum/Min/Max = %v/%v/%v", s.Sum, s.Min, s.Max)
	}
	// Bucket totals must agree with the count, and each observation must land
	// in the bucket whose [2^i, 2^(i+1)) range covers it.
	var total uint64
	for i, c := range s.Buckets {
		total += c
		if c > 0 && i > 0 {
			lo := time.Duration(1) << uint(i)
			ok := false
			for _, d := range durations {
				if d >= lo && d < BucketUpper(i) {
					ok = true
				}
			}
			if !ok {
				t.Errorf("bucket %d non-empty but no observation in [%v, %v)", i, lo, BucketUpper(i))
			}
		}
	}
	if total != s.Count {
		t.Errorf("bucket total %d != count %d", total, s.Count)
	}
	// Zero and 1ns both land in bucket 0.
	if s.Buckets[0] != 2 {
		t.Errorf("bucket 0 = %d, want 2", s.Buckets[0])
	}
}

func TestBucketUpper(t *testing.T) {
	if BucketUpper(-1) != 0 {
		t.Error("negative index")
	}
	if BucketUpper(0) != 2 || BucketUpper(9) != 1024 {
		t.Errorf("BucketUpper(0)=%v BucketUpper(9)=%v", BucketUpper(0), BucketUpper(9))
	}
	if BucketUpper(63) != time.Duration(math.MaxInt64) {
		t.Error("last bucket must saturate")
	}
}

// The sum saturates instead of wrapping: after 1 ns and math.MaxInt64 ns the
// mean and the exported sum stay non-negative (the sum at math.MaxInt64).
func TestHistogramSumSaturates(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(math.MaxInt64)
	if m := h.Mean(); m != math.MaxInt64/2 {
		t.Fatalf("Mean() = %v, want %v", m, time.Duration(math.MaxInt64/2))
	}
	if s := h.Snapshot().Sum; s != math.MaxInt64 {
		t.Fatalf("Snapshot().Sum = %v, want %v", s, time.Duration(math.MaxInt64))
	}
}
