package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoRunsEveryItemOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 1000} {
		for _, workers := range []int{1, 2, 8, n + 1} {
			runs := make([]atomic.Int32, n)
			err := Do(workers, n, func(w, i int) error {
				if w < 0 || w >= min(workers, n) {
					t.Errorf("n=%d workers=%d: item %d ran as worker %d", n, workers, i, w)
				}
				runs[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: item %d ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	var b [64]byte
	s := string(b[:runtime.Stack(b[:], false)])
	var id string
	fmt.Sscanf(s, "goroutine %s", &id)
	return id
}

func TestDoOneWorkerRunsOnCallerInOrder(t *testing.T) {
	caller := goid()
	var order []int
	if err := Do(1, 100, func(w, i int) error {
		if g := goid(); g != caller || w != 0 {
			t.Errorf("item %d ran on goroutine %s as worker %d, caller is %s", i, g, w, caller)
		}
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("item %d ran at position %d", got, i)
		}
	}
	if len(order) != 100 {
		t.Fatalf("%d items ran, want 100", len(order))
	}
}

// After a failure no new item starts. Items 0…W−2 hold their workers until
// the failure of item W−1 has had time to register, so no worker is free to
// claim an item past W−1 before it has failed; the failure itself can only be
// waited for with a timeout, since the runner records it after f returns.
func TestDoStopsAfterFailure(t *testing.T) {
	const workers, n = 4, 1000
	boom := errors.New("boom")
	var started sync.WaitGroup
	started.Add(workers - 1)
	gate := make(chan struct{})
	var ran [n]atomic.Bool
	err := Do(workers, n, func(_, i int) error {
		ran[i].Store(true)
		switch {
		case i < workers-1:
			started.Done()
			<-gate
		case i == workers-1:
			started.Wait()
			time.AfterFunc(250*time.Millisecond, func() { close(gate) })
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	for i := range ran {
		if ran[i].Load() != (i < workers) {
			t.Fatalf("item %d ran = %v after item %d failed", i, ran[i].Load(), workers-1)
		}
	}

	// One worker: the failing item is the last to run.
	count := 0
	if err := Do(1, n, func(_, i int) error {
		count++
		if i == 10 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) || count != 11 {
		t.Fatalf("one worker: err = %v after %d items, want %v after 11", err, count, boom)
	}
}

// Several items fail, the higher ones first; Do returns the lowest's error.
func TestDoReturnsLowestFailure(t *testing.T) {
	const workers = 8
	var started sync.WaitGroup
	started.Add(workers)
	done := make([]chan struct{}, workers+1)
	for i := range done {
		done[i] = make(chan struct{})
	}
	close(done[workers])
	err := Do(workers, 1000, func(_, i int) error {
		if i >= workers {
			return nil
		}
		started.Done()
		started.Wait()
		if i < 3 {
			return nil
		}
		defer close(done[i])
		<-done[i+1]
		return fmt.Errorf("item %d", i)
	})
	if err == nil || err.Error() != "item 3" {
		t.Fatalf("err = %v, want the error of item 3", err)
	}
}

func TestDoAllocatesNothingPerItem(t *testing.T) {
	f := func(_, _ int) error { return nil }
	for _, workers := range []int{1, 2} {
		few := testing.AllocsPerRun(20, func() { Do(workers, 10, f) })
		many := testing.AllocsPerRun(20, func() { Do(workers, 10000, f) })
		if many != few {
			t.Fatalf("workers=%d: %.0f allocations for 10 items, %.0f for 10000", workers, few, many)
		}
	}
}
