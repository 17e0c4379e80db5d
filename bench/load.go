package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// target is one kind of request against the system under test. Client slots
// are 0..clients-1; a slot is only ever used by one goroutine at a time, so an
// implementation may keep per-slot state (a connection, the last reply).
type target interface {
	// do issues request i; its duration is what the client waits.
	do(client, i int) error
	// check reports, outside the timed section, whether the reply to the
	// slot's last do was right.
	check(client, i int) bool
}

// tally counts what happened to the requests a run attempted.
type tally struct {
	attempted, errors, wrong, shed int
	firstErr                       error // the first request error, for the report
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.errors += o.errors
	t.wrong += o.wrong
	t.shed += o.shed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) fail(err error) {
	t.errors++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t tally) failed() int { return t.errors + t.wrong + t.shed }

// record runs one request and files its outcome.
func (t *tally) record(tg target, client, i int) (ok bool, done time.Time) {
	t.attempted++
	err := tg.do(client, i)
	done = time.Now()
	switch {
	case err != nil:
		t.fail(err)
	case !tg.check(client, i):
		t.wrong++
	default:
		ok = true
	}
	return ok, done
}

// closedLoop runs `clients` goroutines that each send their next request as
// soon as the previous one returns, until dur has passed since start. Client
// c issues requests c, c+clients, c+2·clients, …. capHint pre-sizes each
// client's sample buffer so recording does not allocate while timing.
func closedLoop(start time.Time, dur time.Duration, clients, capHint int, tg target) ([]sample, tally) {
	per := make([][]sample, clients)
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		per[c] = make([]sample, 0, capHint)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i += clients {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				ok, done := tallies[c].record(tg, c, i)
				if ok {
					per[c] = append(per[c], sample{at: int64(done.Sub(start)), lat: int64(done.Sub(t0))})
				}
			}
		}(c)
	}
	wg.Wait()
	return mergeClients(per, tallies)
}

func mergeClients(per [][]sample, tallies []tally) ([]sample, tally) {
	var all []sample
	var tl tally
	for c := range per {
		all = append(all, per[c]...)
		tl.add(tallies[c])
	}
	return all, tl
}

// openResult is what one open-loop phase observed.
type openResult struct {
	samples []sample // at = due time, lat = completion − due time
	lag     []int64  // how late the generator dispatched each arrival, ns
	tally   tally
}

// openLoop sends requests on a fixed schedule, request i being due at
// start + i/rate, whatever the system does: a request that finds every
// connection busy waits for one, and that wait is part of its latency because
// latency runs from the due time. An arrival that finds maxOutstanding
// requests already waiting or in flight is shed and counted as failed, so a
// stuck system cannot grow the backlog without bound.
func openLoop(start time.Time, dur time.Duration, rate float64, workers, maxOutstanding int, tg target) openResult {
	type job struct {
		i   int
		due time.Time
	}
	n := int(dur.Seconds() * rate)
	jobs := make(chan job, maxOutstanding) // never holds more than the cap, so a send never blocks
	var outstanding atomic.Int64
	per := make([][]sample, workers)
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		per[w] = make([]sample, 0, n/workers+n/8+16)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range jobs {
				ok, done := tallies[w].record(tg, w, j.i)
				outstanding.Add(-1)
				if ok {
					per[w] = append(per[w], sample{at: int64(j.due.Sub(start)), lat: int64(done.Sub(j.due))})
				}
			}
		}(w)
	}
	res := openResult{lag: make([]int64, 0, n)}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		res.lag = append(res.lag, int64(time.Since(due)))
		if outstanding.Load() >= int64(maxOutstanding) {
			res.tally.attempted++
			res.tally.shed++
			continue
		}
		outstanding.Add(1)
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	var tl tally
	res.samples, tl = mergeClients(per, tallies)
	res.tally.add(tl)
	return res
}
