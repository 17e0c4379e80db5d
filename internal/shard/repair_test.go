package shard

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/nncell"
	"repro/internal/pager"
	"repro/internal/vec"
)

func lazyOptions(shards, workers int) Options {
	return Options{
		Shards: shards,
		Pager:  pager.Config{CachePages: 64},
		Index:  nncell.Options{Algorithm: nncell.Sphere, LazyRepair: true, RepairWorkers: workers},
	}
}

// pointsForShard generates n points that all route to the target shard, so
// a test can load repair work into exactly one shard's queue while every
// other pool sits idle.
func pointsForShard(t *testing.T, rng *rand.Rand, target, shards, n, d int) []vec.Point {
	t.Helper()
	var out []vec.Point
	for tries := 0; len(out) < n && tries < 100000; tries++ {
		p := randQuery(rng, d)
		if route(p, shards) == target {
			out = append(out, p)
		}
	}
	if len(out) < n {
		t.Fatalf("could not generate %d points for shard %d", n, target)
	}
	return out
}

// TestRepairWaitDrainsBusyShardAmongIdle loads repair work into a single
// shard and calls RepairWait: the idle pools must not short-circuit the
// drain, and every shard must come back with zero stale cells.
func TestRepairWaitDrainsBusyShardAmongIdle(t *testing.T) {
	const (
		d = 4
		S = 4
	)
	pts := uniquePoints(t, 301, 200, d)
	s, err := Build(pts, vec.UnitCube(d), lazyOptions(S, 2))
	if err != nil {
		t.Fatal(err)
	}
	// All inserts target the last shard, so shards 0..S-2 stay idle —
	// the regression mode was an early return when an idle pool was hit
	// before the busy one.
	rng := rand.New(rand.NewSource(302))
	for _, p := range pointsForShard(t, rng, S-1, S, 64, d) {
		if _, err := s.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	s.RepairWait()
	for i := 0; i < s.NumShards(); i++ {
		ix := s.Shard(i)
		if ix.RepairPending() {
			t.Fatalf("shard %d still has pending repairs after RepairWait", i)
		}
		if st := ix.Stats(); st.StaleCells != 0 {
			t.Fatalf("shard %d: %d stale cells after RepairWait", i, st.StaleCells)
		}
	}
	// The aggregate high-water mark is the busy shard's (the max over shards,
	// not a sum and not dropped), and draining does not reset it.
	busy := s.Shard(S - 1).Stats().StaleCellsHighWater
	if got := s.Stats().StaleCellsHighWater; busy == 0 || got != busy {
		t.Fatalf("aggregate StaleCellsHighWater = %d, busy shard's = %d (want equal, > 0)", got, busy)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrainsRepairGoroutines proves Close does not leak repair
// workers: after queueing repairs across shards and closing immediately,
// the process goroutine count must return to its pre-index baseline.
func TestCloseDrainsRepairGoroutines(t *testing.T) {
	const (
		d = 4
		S = 4
	)
	baseline := runtime.NumGoroutine()

	pts := uniquePoints(t, 303, 200, d)
	s, err := Build(pts, vec.UnitCube(d), lazyOptions(S, 4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(304))
	for i := 0; i < 128; i++ {
		if _, err := s.Insert(randQuery(rng, d)); err != nil {
			t.Fatal(err)
		}
	}
	// Close while repairs are (very likely) still pending; it must drain
	// them, not abandon them.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumShards(); i++ {
		if s.Shard(i).RepairPending() {
			t.Fatalf("shard %d has pending repairs after Close", i)
		}
	}

	// On-demand workers exit once the queue drains; give the scheduler a
	// bounded window to reap them before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Close: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
