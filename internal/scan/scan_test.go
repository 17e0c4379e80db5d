package scan

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pager"
	"repro/internal/vec"
)

func pts(vals ...float64) []vec.Point {
	out := make([]vec.Point, len(vals))
	for i, v := range vals {
		out[i] = vec.Point{v}
	}
	return out
}

func TestNearestBasics(t *testing.T) {
	s := New(pts(0.1, 0.5, 0.9), vec.Euclidean{}, pager.New(pager.Config{}))
	idx, d2 := s.Nearest(vec.Point{0.52})
	if idx != 1 || math.Abs(d2-0.0004) > 1e-12 {
		t.Errorf("Nearest = %d, %v", idx, d2)
	}
	if s.Len() != 3 || !s.Point(1).Equal(vec.Point{0.5}) {
		t.Errorf("Len/Point accessors broken")
	}
	// Ties resolve to the lowest index.
	s = New(pts(0.4, 0.6), vec.Euclidean{}, pager.New(pager.Config{}))
	if idx, _ := s.Nearest(vec.Point{0.5}); idx != 0 {
		t.Errorf("tie broke to %d, want 0", idx)
	}
}

func TestKNearestOrderAndBounds(t *testing.T) {
	s := New(pts(0.0, 0.3, 0.6, 1.0), vec.Euclidean{}, pager.New(pager.Config{}))
	got := s.KNearest(vec.Point{0.25}, 3)
	if len(got) != 3 || got[0].Index != 1 || got[1].Index != 0 || got[2].Index != 2 {
		t.Errorf("KNearest = %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist2 < got[i-1].Dist2 {
			t.Error("results not sorted")
		}
	}
	if len(s.KNearest(vec.Point{0.25}, 100)) != 4 {
		t.Error("oversized k not clamped")
	}
	if s.KNearest(vec.Point{0.25}, 0) != nil {
		t.Error("k=0 returned results")
	}
}

func TestPageAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points := make([]vec.Point, 1000)
	for i := range points {
		points[i] = vec.Point{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	pg := pager.New(pager.Config{PageSize: 4096})
	s := New(points, vec.Euclidean{}, pg)
	pg.ResetStats()
	s.Nearest(vec.Point{0.5, 0.5, 0.5})
	st := pg.Stats()
	if st.Accesses == 0 || int(st.Accesses) != pg.LivePages() {
		t.Errorf("scan accessed %d pages, store has %d", st.Accesses, pg.LivePages())
	}
}

func TestValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty point set did not panic")
		}
	}()
	New(nil, vec.Euclidean{}, pager.New(pager.Config{}))
}

func TestMixedDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mixed dims did not panic")
		}
	}()
	New([]vec.Point{{1}, {1, 2}}, vec.Euclidean{}, pager.New(pager.Config{}))
}
