package nncell

import (
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
