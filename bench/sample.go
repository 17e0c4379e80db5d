package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// sample is one timed operation. at is the instant that assigns it to a
// window, in ns since the phase began: the completion time in a closed loop
// (so a window's rate is its completions), the due time in an open loop (so
// a stall is charged to the requests that were due during it).
type sample struct{ at, lat int64 }

// stat selects the statistic a window computes from its raw samples.
type stat int

const (
	statP50 stat = iota
	statP90
	statP99
	statMean
	statRate // completions per second; higher is better
)

// tailMargin is the number of samples a window must hold beyond a reported
// percentile: with fewer the percentile is one of the window's few extreme
// values, not an estimate.
const tailMargin = 10

func (s stat) quantile() float64 {
	switch s {
	case statP50:
		return 0.50
	case statP90:
		return 0.90
	case statP99:
		return 0.99
	}
	return 0
}

// percentile returns the nearest-rank q-quantile of sorted and whether the
// window has tailMargin samples beyond it.
func percentile(sorted []int64, q float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= tailMargin
}

// windowStat computes one window's statistic from its latencies (ns, sorted
// ascending). Latency statistics are returned in ns, the rate in 1/s.
func windowStat(sorted []int64, s stat, winLen time.Duration) (float64, bool) {
	switch s {
	case statRate:
		return float64(len(sorted)) / winLen.Seconds(), len(sorted) > 0
	case statMean:
		if len(sorted) == 0 {
			return 0, false
		}
		var sum int64
		for _, v := range sorted {
			sum += v
		}
		return float64(sum) / float64(len(sorted)), true
	}
	v, ok := percentile(sorted, s.quantile())
	return float64(v), ok
}

// splitWindows sorts samples into `windows` equal windows of winLen by their
// at field and returns each window's latencies sorted ascending. Samples
// outside the phase are dropped.
func splitWindows(samples []sample, windows int, winLen time.Duration) [][]int64 {
	wins := make([][]int64, windows)
	for _, s := range samples {
		if w := s.at / int64(winLen); s.at >= 0 && w < int64(windows) {
			wins[w] = append(wins[w], s.lat)
		}
	}
	for _, w := range wins {
		slices.Sort(w)
	}
	return wins
}

// estimate is the best/median/worst-window report of one statistic. The
// sandbox's neighbours only ever add time, so the best window is the least
// disturbed view of the program; the other two show how disturbed the run was.
type estimate struct {
	best, med, worst float64
	n                int // samples in the best window
	windows          int // windows that qualified
}

// estimateWindows applies s to every window and keeps the best (lowest, or
// highest for a rate), median and worst of the windows that qualify.
func estimateWindows(wins [][]int64, s stat, winLen time.Duration) (estimate, bool) {
	type wv struct {
		v float64
		n int
	}
	var vals []wv
	for _, w := range wins {
		if v, ok := windowStat(w, s, winLen); ok {
			vals = append(vals, wv{v, len(w)})
		}
	}
	if len(vals) == 0 {
		return estimate{}, false
	}
	sort.Slice(vals, func(i, j int) bool {
		if s == statRate {
			return vals[i].v > vals[j].v
		}
		return vals[i].v < vals[j].v
	})
	return estimate{
		best:    vals[0].v,
		med:     vals[len(vals)/2].v,
		worst:   vals[len(vals)-1].v,
		n:       vals[0].n,
		windows: len(vals),
	}, true
}

// scaled returns e with its values multiplied by f (unit conversion).
func (e estimate) scaled(f float64) estimate {
	e.best, e.med, e.worst = e.best*f, e.med*f, e.worst*f
	return e
}

// series collects the samples of one kind of load, slot by slot. A workload's
// timed section is a sequence of short slots that cycles through its kinds of
// load, so every kind samples the whole section and its best window can come
// from the section's calmest moment, whenever that was.
type series struct {
	slotLen time.Duration
	slots   [][]sample // each slot's samples, at relative to the slot's start
}

func (s *series) add(samples []sample) { s.slots = append(s.slots, samples) }

// estimate cuts every slot into windows of winLen (which must divide the slot
// length) and reports stat st over them. Different statistics may use
// different window lengths over the same samples: a median needs far fewer
// samples than a 99th percentile.
func (s *series) estimate(st stat, winLen time.Duration) (estimate, bool) {
	var wins [][]int64
	for _, sl := range s.slots {
		wins = append(wins, splitWindows(sl, int(s.slotLen/winLen), winLen)...)
	}
	return estimateWindows(wins, st, winLen)
}

// estimateRuns reports a latency statistic over windows of `count`
// consecutive requests of the series, in schedule order across its slots,
// each window starting `step` requests after the last. A schedule too slow to
// fill many disjoint windows of the size a p99 needs still has many
// overlapping ones, and the best window need not line up with a slot.
func (s *series) estimateRuns(st stat, count, step int) (estimate, bool) {
	var all []int64
	for _, sl := range s.slots {
		ordered := append([]sample(nil), sl...)
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].at < ordered[j].at })
		for _, x := range ordered {
			all = append(all, x.lat)
		}
	}
	var wins [][]int64
	for from := 0; from+count <= len(all); from += step {
		w := slices.Clone(all[from : from+count])
		slices.Sort(w)
		wins = append(wins, w)
	}
	return estimateWindows(wins, st, 0)
}

// interleave orders sum(counts) slots so that kind k appears counts[k] times,
// spread as evenly as the counts allow.
func interleave(counts []int) []int {
	total := 0
	for _, c := range counts {
		total += c
	}
	left := append([]int(nil), counts...)
	credit := make([]float64, len(counts))
	order := make([]int, 0, total)
	for len(order) < total {
		pick := -1
		for k := range counts {
			credit[k] += float64(counts[k]) / float64(total)
			if left[k] > 0 && (pick < 0 || credit[k] > credit[pick]) {
				pick = k
			}
		}
		credit[pick]--
		left[pick]--
		order = append(order, pick)
	}
	return order
}
