// Package par runs a batch of independent items on a few goroutines: the
// cells of a build or a write recompute (no cell's LPs depend on another
// cell, Definition 3 of the paper), the queries of a batch, the per-shard
// sub-batches of a sharded write and the read router's health probes.
package par

import (
	"sync"
	"sync/atomic"
)

// Do calls f(w, i) for every i in [0, n) on min(workers, n) goroutines, w
// numbering the goroutine from 0 so that callers can index per-worker scratch
// by it. With one worker the items run on the caller's goroutine, in index
// order. Items are claimed in index order and, once one has failed, no new
// item starts; Do returns the error of the lowest failed i, which is the
// error a serial loop would return. It allocates nothing per item.
func Do(workers, n int, f func(w, i int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		lowest = n
		first  error
		wg     sync.WaitGroup
	)
	work := func(w int) {
		for i := int(next.Add(1)) - 1; i < n && !failed.Load(); i = int(next.Add(1)) - 1 {
			if err := f(w, i); err != nil {
				failed.Store(true)
				mu.Lock()
				if i < lowest {
					lowest, first = i, err
				}
				mu.Unlock()
			}
		}
	}
	// The caller's goroutine is worker 0; the others get one goroutine each.
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	return first
}
