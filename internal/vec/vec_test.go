package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointBasics(t *testing.T) {
	p := Point{1, 2, 3}
	q := Point{4, 5, 6}
	if p.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", p.Dim())
	}
	if got := p.Dot(q); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := (Point{3, 4}).Norm2(); got != 25 {
		t.Errorf("Norm2 = %v, want 25", got)
	}
	c := p.Clone()
	c[0] = 99
	if p[0] != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestPointEqual(t *testing.T) {
	if (Point{1, 2}).Equal(Point{1, 2, 3}) {
		t.Error("points of different dim reported equal")
	}
	if !(Point{1, 2}).Equal(Point{1, 2}) {
		t.Error("identical points reported unequal")
	}
	if (Point{1, 2}).Equal(Point{1, 2.5}) {
		t.Error("different points reported equal")
	}
}

func TestDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	_ = Point{1}.Dot(Point{1, 2})
}

func TestEuclidean(t *testing.T) {
	m := Euclidean{}
	p := Point{0, 0}
	q := Point{3, 4}
	if got := m.Dist(p, q); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := m.Dist2(p, q); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	r := NewRect(Point{1, 1}, Point{2, 2})
	if got := m.MinDist2(Point{1.5, 1.5}, r); got != 0 {
		t.Errorf("MinDist2 inside = %v, want 0", got)
	}
	if got := m.MinDist2(Point{0, 0}, r); got != 2 {
		t.Errorf("MinDist2 corner = %v, want 2", got)
	}
	if got := m.MinDist2(Point{1.5, 0}, r); got != 1 {
		t.Errorf("MinDist2 edge = %v, want 1", got)
	}
}

// MinDist to a rectangle must lower-bound the distance to any point inside it.
func TestMinDistLowerBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Metric = Euclidean{}
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(6)
		r := randRect(rng, d)
		q := randPoint(rng, d)
		// sample a point inside r
		in := make(Point, d)
		for i := 0; i < d; i++ {
			in[i] = r.Lo[i] + rng.Float64()*(r.Hi[i]-r.Lo[i])
		}
		if md, dd := m.MinDist2(q, r), m.Dist2(q, in); md > dd+1e-12 {
			t.Fatalf("%s: MinDist2 %v > Dist2 %v (q=%v r=%v in=%v)", m.Name(), md, dd, q, r, in)
		}
	}
}

// MINMAXDIST must upper-bound MinDist and lower-bound the farthest corner.
func TestMinMaxDistProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(6)
		r := randRect(rng, d)
		q := randPoint(rng, d)
		mm := MinMaxDist2(q, r)
		md := (Euclidean{}).MinDist2(q, r)
		if mm < md-1e-12 {
			t.Fatalf("MinMaxDist2 %v < MinDist2 %v", mm, md)
		}
		// MINMAXDIST is attained on the boundary of r, so it is at most the
		// squared distance to the farthest corner.
		far := 0.0
		for i := 0; i < d; i++ {
			d1 := q[i] - r.Lo[i]
			d2 := q[i] - r.Hi[i]
			far += math.Max(d1*d1, d2*d2)
		}
		if mm > far+1e-12 {
			t.Fatalf("MinMaxDist2 %v > farthest corner %v", mm, far)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 4})
	if r.Volume() != 8 {
		t.Errorf("Volume = %v, want 8", r.Volume())
	}
	if r.Margin() != 6 {
		t.Errorf("Margin = %v, want 6", r.Margin())
	}
	if !r.Center().Equal(Point{1, 2}) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(Point{2, 4}) {
		t.Error("boundary point not contained")
	}
	if r.Contains(Point{2.1, 4}) {
		t.Error("outside point contained")
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect(3)
	if !e.IsEmpty() {
		t.Error("EmptyRect not empty")
	}
	if e.Volume() != 0 {
		t.Error("empty volume != 0")
	}
	r := NewRect(Point{0, 0, 0}, Point{1, 1, 1})
	if !e.Union(r).Equal(r) {
		t.Error("Union with empty is not identity")
	}
	if !r.ContainsRect(e) {
		t.Error("empty rect not contained")
	}
	if e.Contains(Point{0, 0, 0}) {
		t.Error("empty rect contains a point")
	}
}

func TestUnitCube(t *testing.T) {
	u := UnitCube(4)
	if u.Volume() != 1 {
		t.Errorf("unit cube volume = %v", u.Volume())
	}
	if !u.Contains(Point{0.5, 0.5, 0.5, 0.5}) {
		t.Error("center not in unit cube")
	}
}

func TestIntersect(t *testing.T) {
	a := NewRect(Point{0, 0}, Point{2, 2})
	b := NewRect(Point{1, 1}, Point{3, 3})
	c := a.Intersect(b)
	want := NewRect(Point{1, 1}, Point{2, 2})
	if !c.Equal(want) {
		t.Errorf("Intersect = %v, want %v", c, want)
	}
	if got := a.IntersectionVolume(b); got != 1 {
		t.Errorf("IntersectionVolume = %v, want 1", got)
	}
	far := NewRect(Point{5, 5}, Point{6, 6})
	if a.Intersects(far) {
		t.Error("disjoint rects intersect")
	}
	if !a.Intersect(far).IsEmpty() {
		t.Error("intersection of disjoint rects not empty")
	}
	if got := a.IntersectionVolume(far); got != 0 {
		t.Errorf("IntersectionVolume disjoint = %v", got)
	}
	if got := a.EnlargedVolume(b); got != 9 {
		t.Errorf("EnlargedVolume = %v, want 9", got)
	}
}

func TestIntersectsSphere(t *testing.T) {
	r := NewRect(Point{1, 1}, Point{2, 2})
	if !r.IntersectsSphere(Point{0, 1.5}, 1) {
		t.Error("touching sphere not detected")
	}
	if r.IntersectsSphere(Point{0, 1.5}, 0.5) {
		t.Error("distant sphere detected")
	}
	if !r.IntersectsSphere(Point{1.5, 1.5}, 0.01) {
		t.Error("interior sphere not detected")
	}
}

func TestSplitAt(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 2})
	lo, hi := r.SplitAt(0, 0.5)
	if lo.Hi[0] != 0.5 || hi.Lo[0] != 0.5 {
		t.Errorf("SplitAt: lo=%v hi=%v", lo, hi)
	}
	// Clamped split.
	lo, hi = r.SplitAt(1, 5)
	if lo.Hi[1] != 2 || hi.Lo[1] != 2 {
		t.Errorf("clamped SplitAt: lo=%v hi=%v", lo, hi)
	}
	if lo.IsEmpty() || hi.Volume() != 0 {
		t.Error("clamped split produced wrong degeneracy")
	}
}

func TestExtendPoint(t *testing.T) {
	r := EmptyRect(2)
	r.ExtendPoint(Point{1, 1})
	r.ExtendPoint(Point{0, 3})
	want := NewRect(Point{0, 1}, Point{1, 3})
	if !r.Equal(want) {
		t.Errorf("ExtendPoint = %v, want %v", r, want)
	}
}

// Union is commutative, associative, idempotent, and monotone (quick checks).
func TestUnionAlgebraQuick(t *testing.T) {
	gen := func(seed int64) (Rect, Rect, Rect) {
		rng := rand.New(rand.NewSource(seed))
		return randRect(rng, 3), randRect(rng, 3), randRect(rng, 3)
	}
	f := func(seed int64) bool {
		a, b, c := gen(seed)
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Union(b).Union(c).Equal(a.Union(b.Union(c))) {
			return false
		}
		if !a.Union(a).Equal(a) {
			return false
		}
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b) && u.Volume() >= a.Volume()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Intersection is contained in both operands; volume never exceeds either.
func TestIntersectionAlgebraQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randRect(rng, 4), randRect(rng, 4)
		c := a.Intersect(b)
		if c.IsEmpty() {
			return !a.Intersects(b) || c.Volume() == 0
		}
		return a.ContainsRect(c) && b.ContainsRect(c) &&
			c.Volume() <= a.Volume()+1e-12 && c.Volume() <= b.Volume()+1e-12 &&
			math.Abs(c.Volume()-a.IntersectionVolume(b)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	p := Point{0.25, 0.75}
	if p.String() != "(0.25, 0.75)" {
		t.Errorf("Point.String = %q", p.String())
	}
	r := NewRect(Point{0}, Point{1})
	if r.String() == "" {
		t.Error("empty rect string")
	}
}

func randPoint(rng *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = rng.Float64()*2 - 0.5
	}
	return p
}

func randRect(rng *rand.Rand, d int) Rect {
	a := randPoint(rng, d)
	b := randPoint(rng, d)
	r := PointRect(a)
	r.ExtendPoint(b)
	return r
}

func BenchmarkEuclideanDist2(b *testing.B) {
	p := randPoint(rand.New(rand.NewSource(1)), 16)
	q := randPoint(rand.New(rand.NewSource(2)), 16)
	m := Euclidean{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Dist2(p, q)
	}
}

func BenchmarkMinDist2(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	r := randRect(rng, 16)
	q := randPoint(rng, 16)
	m := Euclidean{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.MinDist2(q, r)
	}
}
