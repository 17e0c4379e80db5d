package voronoi

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vec"
)

func unit() vec.Rect { return vec.UnitCube(2) }

func randPoints(rng *rand.Rand, n int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		pts[i] = vec.Point{rng.Float64(), rng.Float64()}
	}
	return pts
}

func TestRectPolygonAndArea(t *testing.T) {
	p := RectPolygon(vec.NewRect(vec.Point{0, 0}, vec.Point{2, 3}))
	if got := p.Area(); math.Abs(got-6) > 1e-12 {
		t.Errorf("Area = %v, want 6", got)
	}
	if !p.Contains(vec.Point{1, 1}) {
		t.Error("interior point not contained")
	}
	if p.Contains(vec.Point{3, 1}) {
		t.Error("exterior point contained")
	}
	mbr := p.MBR()
	if !mbr.Equal(vec.NewRect(vec.Point{0, 0}, vec.Point{2, 3})) {
		t.Errorf("MBR = %v", mbr)
	}
}

func TestClipHalfPlane(t *testing.T) {
	sq := RectPolygon(unit())
	// x <= 0.5 keeps the left half.
	half := sq.ClipHalfPlane(vec.Point{1, 0}, 0.5)
	if math.Abs(half.Area()-0.5) > 1e-12 {
		t.Errorf("half area = %v", half.Area())
	}
	// Clip everything away.
	none := sq.ClipHalfPlane(vec.Point{1, 0}, -1)
	if !none.IsEmpty() {
		t.Errorf("expected empty polygon, got %v", none)
	}
	// Clip nothing.
	all := sq.ClipHalfPlane(vec.Point{1, 0}, 2)
	if math.Abs(all.Area()-1) > 1e-12 {
		t.Errorf("full area = %v", all.Area())
	}
	// Diagonal clip: x + y <= 1 keeps a triangle of area 1/2.
	tri := sq.ClipHalfPlane(vec.Point{1, 1}, 1)
	if math.Abs(tri.Area()-0.5) > 1e-12 {
		t.Errorf("triangle area = %v", tri.Area())
	}
}

func TestBisector(t *testing.T) {
	p := vec.Point{0, 0}
	q := vec.Point{1, 0}
	a, b := Bisector(p, q)
	// Midpoint satisfies with equality; p strictly; q violates.
	if v := a[0]*0.5 + a[1]*0; math.Abs(v-b) > 1e-12 {
		t.Errorf("midpoint not on bisector: %v vs %v", v, b)
	}
	if a[0]*p[0]+a[1]*p[1] > b {
		t.Error("p outside its own half-plane")
	}
	if a[0]*q[0]+a[1]*q[1] <= b {
		t.Error("q inside p's half-plane")
	}
}

func TestTwoPointCells(t *testing.T) {
	pts := []vec.Point{{0.25, 0.5}, {0.75, 0.5}}
	c0 := NNCell(pts, 0, unit())
	c1 := NNCell(pts, 1, unit())
	if math.Abs(c0.Area()-0.5) > 1e-9 || math.Abs(c1.Area()-0.5) > 1e-9 {
		t.Errorf("areas = %v, %v, want 0.5 each", c0.Area(), c1.Area())
	}
	if !c0.Contains(vec.Point{0.1, 0.5}) || c0.Contains(vec.Point{0.9, 0.5}) {
		t.Error("cell 0 has wrong extent")
	}
}

// The NN-cells partition the data space: areas sum to Vol(DS) and each cell
// contains its own point (the identity the paper states after Definition 2).
func TestCellsPartitionDataSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		pts := randPoints(rng, 3+rng.Intn(40))
		cells := NNDiagram(pts, unit())
		total := 0.0
		for i, c := range cells {
			if c.IsEmpty() {
				t.Fatalf("trial %d: cell %d empty", trial, i)
			}
			if !c.Contains(pts[i]) {
				t.Fatalf("trial %d: cell %d does not contain its point", trial, i)
			}
			total += c.Area()
		}
		if math.Abs(total-1) > 1e-6 {
			t.Fatalf("trial %d: cell areas sum to %v, want 1", trial, total)
		}
	}
}

// Every cell interior point must have the cell's site as nearest neighbor.
func TestCellMembershipMatchesNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pts := randPoints(rng, 25)
	cells := NNDiagram(pts, unit())
	metric := vec.Euclidean{}
	for trial := 0; trial < 2000; trial++ {
		q := vec.Point{rng.Float64(), rng.Float64()}
		best, bestD := 0, metric.Dist2(q, pts[0])
		for i := 1; i < len(pts); i++ {
			if d := metric.Dist2(q, pts[i]); d < bestD {
				best, bestD = i, d
			}
		}
		if !cells[best].Contains(q) {
			t.Fatalf("query %v: NN cell %d does not contain it", q, best)
		}
	}
}

func TestRender(t *testing.T) {
	pts := []vec.Point{{0.25, 0.5}, {0.75, 0.5}}
	s := Render(pts, unit(), 20, 8)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 8 || len(lines[0]) != 20 {
		t.Fatalf("raster is %dx%d", len(lines), len(lines[0]))
	}
	if !strings.Contains(s, "a") || !strings.Contains(s, "b") || !strings.Contains(s, "*") {
		t.Errorf("render missing expected symbols:\n%s", s)
	}
	// Left edge belongs to point 0 ('a'), right edge to point 1 ('b').
	if lines[4][0] != 'a' || lines[4][19] != 'b' {
		t.Errorf("unexpected ownership at edges:\n%s", s)
	}
}

func BenchmarkNNCell100(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NNCell(pts, i%len(pts), unit())
	}
}
