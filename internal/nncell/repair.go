package nncell

import (
	"runtime"
	"sync"
)

// Lazy repair (Options.LazyRepair): Insert and InsertBatch mark affected
// cells stale instead of re-solving their LPs inside the mutation's write
// lock. Correctness rests on Lemma 1's superset argument: an insert only
// shrinks existing cells, so a stale cell's stored MBRs remain supersets of
// its true (shrunken) cell and Lemma 2's no-false-dismissal guarantee keeps
// every query exact — a stale cell costs at most extra candidates, never a
// wrong answer. Deletes never go through this path: a delete grows its
// neighbors' cells, so their old MBRs would stop being supersets.
//
// A stale cell is repaired by re-approximating it against the current point
// set and swapping the result in. Repairs run on a bounded pool of
// on-demand worker goroutines (spawned when cells are marked, exiting when
// the queue drains — no long-lived goroutines to leak) and/or on callers of
// RepairWait, which participates in draining rather than just blocking.
//
// The commit protocol is epoch-validated to survive racing mutations: each
// marking stamps the cell with a fresh epoch from the monotonic staleSeq
// (never reused, so there is no ABA window). A repair records the epoch
// under the read lock, solves without any lock on the committed structures,
// and commits under the write lock only if the cell is still stale at
// exactly that epoch and still live. Any interleaved mutation either
// re-marks the cell (bumping the epoch — the repair aborts and the cell is
// re-enqueued) or eagerly recomputes/deletes it (clearing the stale mark —
// the repair aborts and drops it). An aborted repair never commits a
// potentially out-of-date approximation.
//
// Lock ordering: ix.mu may be held while taking rq.mu (markStaleLocked);
// rq.mu is NEVER held while taking ix.mu.

// repairQueue is the pending-repair work queue. The zero value is ready,
// so Build and the persistence loader need no setup.
type repairQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond // lazily created by the first waiter
	queue  []int
	queued map[int]bool
	active int // worker goroutines + RepairWait callers mid-repair
	// drainOnly starts no pool: stale cells wait for RepairWait. The package's
	// tests set it to hold the stale window open.
	drainOnly bool
}

// pushLocked enqueues id if absent. Caller holds rq.mu.
func (rq *repairQueue) pushLocked(id int) bool {
	if rq.queued == nil {
		rq.queued = make(map[int]bool)
	}
	if rq.queued[id] {
		return false
	}
	rq.queued[id] = true
	rq.queue = append(rq.queue, id)
	if rq.cond != nil {
		rq.cond.Broadcast()
	}
	return true
}

// popLocked dequeues one id. Caller holds rq.mu and has checked non-empty.
func (rq *repairQueue) popLocked() int {
	id := rq.queue[len(rq.queue)-1]
	rq.queue = rq.queue[:len(rq.queue)-1]
	delete(rq.queued, id)
	return id
}

// markStaleLocked stamps every id with a fresh epoch, enqueues the ones not
// already pending, and tops the background pool up to min(4, GOMAXPROCS)
// workers. Caller holds ix.mu (write side); ids must be live cells.
func (ix *Index) markStaleLocked(ids []int) {
	if len(ids) == 0 {
		return
	}
	if ix.stale == nil {
		ix.stale = make(map[int]uint64)
	}
	rq := &ix.rq
	rq.mu.Lock()
	enqueued := 0
	for _, id := range ids {
		ix.staleSeq++
		if _, already := ix.stale[id]; !already {
			ix.stats.staleCells.Add(1)
		}
		ix.stale[id] = ix.staleSeq
		if rq.pushLocked(id) {
			enqueued++
		}
	}
	// ix.mu (write side) serializes markers, so load-then-store cannot lose
	// a concurrent increase; only clearStaleLocked ever shrinks the set.
	if hw := uint64(len(ix.stale)); hw > ix.stats.staleHighWater.Load() {
		ix.stats.staleHighWater.Store(hw)
	}
	for !rq.drainOnly && enqueued > 0 && rq.active < min(4, runtime.GOMAXPROCS(0)) {
		rq.active++
		enqueued--
		go ix.repairWorker()
	}
	rq.mu.Unlock()
}

// clearStaleLocked drops id's stale mark (eager recompute or deletion has
// superseded any repair in flight; the epoch check makes that repair abort).
// Caller holds ix.mu (write side). The queue entry, if any, is left in
// place — a worker drawing it finds the cell no longer stale and skips it.
func (ix *Index) clearStaleLocked(id int) {
	if _, ok := ix.stale[id]; ok {
		delete(ix.stale, id)
		ix.stats.staleCells.Add(-1)
	}
}

// repairWorker drains the queue and exits. One counted in rq.active from
// spawn to exit, so RepairWait's active==0 check covers in-flight repairs.
func (ix *Index) repairWorker() {
	rq := &ix.rq
	cc := newCellCtx(ix.dim)
	for {
		rq.mu.Lock()
		if len(rq.queue) == 0 {
			rq.active--
			if rq.active == 0 && rq.cond != nil {
				rq.cond.Broadcast()
			}
			rq.mu.Unlock()
			return
		}
		id := rq.popLocked()
		rq.mu.Unlock()
		ix.repairOne(cc, id)
	}
}

// repairOne re-approximates one stale cell and commits it if no mutation
// intervened (see the epoch protocol above). LP failure leaves the cell
// stale with its old superset MBRs — still exact to serve — and counts a
// RepairFailure instead of retrying forever.
func (ix *Index) repairOne(cc *cellCtx, id int) {
	ix.mu.RLock()
	epoch, stale := ix.stale[id]
	if !stale || id >= ix.cells.len() || ix.point(id) == nil {
		ix.mu.RUnlock()
		return
	}
	row := make([]float32, 2*ix.dim)
	err := ix.approximateCell(cc, id, row)
	ix.mu.RUnlock()
	if err != nil {
		ix.stats.repairFailures.Add(1)
		return
	}

	ix.mu.Lock()
	if ix.point(id) != nil && ix.stale[id] == epoch {
		ix.removeCell(id)
		ix.storeCell(id, row)
		delete(ix.stale, id)
		ix.stats.staleCells.Add(-1)
		ix.stats.repairs.Add(1)
		// A repair commit swaps the cell's stored approximation; the exact
		// answer function is unchanged (the true cell was fixed at mark time),
		// but notifying keeps the result cache's invariant conservative: no
		// entry filled against a pre-repair rectangle survives the repair.
		ix.notifyMutationLocked(nil, nil, id)
		ix.mu.Unlock()
		return
	}
	// The solve is out of date. If the cell is still live and stale (it was
	// re-marked at a newer epoch after this worker dequeued it), put it back.
	_, still := ix.stale[id]
	live := ix.point(id) != nil
	ix.mu.Unlock()
	if still && live {
		ix.rq.mu.Lock()
		ix.rq.pushLocked(id)
		ix.rq.mu.Unlock()
	}
}

// RepairWait drains the repair queue, participating in the work rather than
// just blocking: the caller repairs cells itself until the queue is empty
// and no repair is in flight. It is the flush API for LazyRepair. Cells
// whose repair LPs fail stay stale — still correct supersets — so RepairWait
// terminates even under persistent LP failure; Stats().StaleCells reports
// any residue.
func (ix *Index) RepairWait() {
	rq := &ix.rq
	var cc *cellCtx
	rq.mu.Lock()
	for {
		if len(rq.queue) > 0 {
			id := rq.popLocked()
			rq.active++
			rq.mu.Unlock()
			if cc == nil {
				cc = newCellCtx(ix.dim)
			}
			ix.repairOne(cc, id)
			rq.mu.Lock()
			rq.active--
			if rq.active == 0 && rq.cond != nil {
				rq.cond.Broadcast()
			}
			continue
		}
		if rq.active == 0 {
			rq.mu.Unlock()
			return
		}
		if rq.cond == nil {
			rq.cond = sync.NewCond(&rq.mu)
		}
		rq.cond.Wait()
	}
}
