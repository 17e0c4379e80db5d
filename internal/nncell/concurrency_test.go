package nncell

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/scan"
	"repro/internal/vec"
)

// Queries are safe and exact under heavy concurrency.
func TestConcurrentQueries(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 101, 300, 4)
	ix := mustBuild(t, pts, Options{Algorithm: Sphere})
	oracle := scan.New(pts, vec.Euclidean{}, newTestPager())
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				q := randQuery(rng, 4)
				got, err := ix.NearestNeighbor(q)
				if err != nil {
					errs <- err
					return
				}
				if _, want := oracle.Nearest(q); math.Abs(got.Dist2-want) > 1e-12 {
					errs <- errMismatch(got.Dist2, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Concurrent queries interleaved with serialized writers (the index uses a
// RWMutex; writers exclude readers).
func TestConcurrentQueriesWithWrites(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 102, 400, 3)
	ix := mustBuild(t, pts[:200], Options{Algorithm: NNDirection})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Readers cannot assert against a fixed oracle while the
				// point set churns; assert internal consistency instead:
				// the returned id must be a live point at the returned
				// distance (up to the point being deleted in between).
				q := randQuery(rng, 3)
				nb, err := ix.NearestNeighbor(q)
				if err != nil {
					errs <- err
					return
				}
				if p, ok := ix.Point(nb.ID); ok {
					if d2 := (vec.Euclidean{}).Dist2(q, p); math.Abs(d2-nb.Dist2) > 1e-12 {
						errs <- errMismatch(d2, nb.Dist2)
						return
					}
				}
			}
		}(int64(100 + w))
	}
	for i := 200; i < 260; i++ {
		if _, err := ix.Insert(pts[i]); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := ix.Delete(i - 150); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Final exactness check against the surviving set.
	var live []vec.Point
	for id := range pts {
		if p, ok := ix.Point(id); ok {
			live = append(live, p)
		}
	}
	oracle := scan.New(live, vec.Euclidean{}, newTestPager())
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 40; trial++ {
		q := randQuery(rng, 3)
		_, want := oracle.Nearest(q)
		got, err := ix.NearestNeighbor(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Dist2-want) > 1e-12 {
			t.Fatalf("trial %d: got %v want %v", trial, got.Dist2, want)
		}
	}
}

// TestConcurrentMixedWorkloadWithSave reproduces the serving layer's access
// pattern under the race detector: every read entry point (NearestNeighbor,
// KNearest, CandidatesAppend — the /v1/* handlers) races Insert/Delete and
// Save, which the snapshot loop runs while queries are in flight.
func TestConcurrentMixedWorkloadWithSave(t *testing.T) {
	pts := uniquePoints(t, dataset.NameUniform, 106, 400, 3)
	ix := mustBuild(t, pts[:250], Options{Algorithm: Sphere})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]int, 0, 16)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := randQuery(rng, 3)
				switch i % 3 {
				case 0:
					nb, err := ix.NearestNeighbor(q)
					if err != nil {
						errs <- err
						return
					}
					if p, ok := ix.Point(nb.ID); ok {
						if d2 := (vec.Euclidean{}).Dist2(q, p); math.Abs(d2-nb.Dist2) > 1e-12 {
							errs <- errMismatch(d2, nb.Dist2)
							return
						}
					}
				case 1:
					nbs, err := ix.KNearest(q, 3)
					if err != nil {
						errs <- err
						return
					}
					for j := 1; j < len(nbs); j++ {
						if nbs[j].Dist2 < nbs[j-1].Dist2 {
							errs <- errMismatch(nbs[j].Dist2, nbs[j-1].Dist2)
							return
						}
					}
				case 2:
					buf = ix.CandidatesAppend(buf[:0], q)
					if len(buf) == 0 {
						errs <- errMismatch(0, 1)
						return
					}
				}
			}
		}(int64(200 + w))
	}
	// A snapshot writer racing the readers and the mutators, like the server's
	// periodic snapshot loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ix.Save(io.Discard); err != nil {
				errs <- err
				return
			}
		}
	}()
	for i := 250; i < 320; i++ {
		if _, err := ix.Insert(pts[i]); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := ix.Delete(i - 200); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The index must still round-trip and answer exactly after the churn.
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Load(&buf, newTestPager())
	if err != nil {
		t.Fatal(err)
	}
	var live []vec.Point
	for id := range pts {
		if p, ok := ix.Point(id); ok {
			live = append(live, p)
		}
	}
	oracle := scan.New(live, vec.Euclidean{}, newTestPager())
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 40; trial++ {
		q := randQuery(rng, 3)
		_, want := oracle.Nearest(q)
		for _, idx := range []*Index{ix, reloaded} {
			got, err := idx.NearestNeighbor(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got.Dist2-want) > 1e-12 {
				t.Fatalf("trial %d: got %v want %v", trial, got.Dist2, want)
			}
		}
	}
}

type errMismatch2 struct{ got, want float64 }

func errMismatch(got, want float64) error { return errMismatch2{got, want} }
func (e errMismatch2) Error() string {
	return "nncell: concurrent query mismatch"
}

func TestNearestNeighborBatch(t *testing.T) {
	pts := uniquePoints(t, dataset.NameClustered, 104, 250, 4)
	ix := mustBuild(t, pts, Options{Algorithm: Sphere})
	oracle := scan.New(pts, vec.Euclidean{}, newTestPager())
	rng := rand.New(rand.NewSource(105))
	qs := make([]vec.Point, 333)
	for i := range qs {
		qs[i] = randQuery(rng, 4)
	}
	for _, workers := range []int{0, 1, 4, 64} {
		res, err := ix.NearestNeighborBatch(qs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(qs) {
			t.Fatalf("workers=%d: %d results", workers, len(res))
		}
		for i, q := range qs {
			if _, want := oracle.Nearest(q); math.Abs(res[i].Dist2-want) > 1e-12 {
				t.Fatalf("workers=%d query %d: got %v want %v", workers, i, res[i].Dist2, want)
			}
		}
	}
	if _, err := ix.NearestNeighborBatch(nil, 4); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}
