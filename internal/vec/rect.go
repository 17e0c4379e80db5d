package vec

import (
	"fmt"
	"math"
	"strings"
)

// Rect is an axis-parallel hyper-rectangle (an MBR in index terminology),
// closed on all sides: {x | Lo[i] <= x[i] <= Hi[i] for all i}. A Rect with
// Lo[i] > Hi[i] in any dimension is empty; EmptyRect constructs the canonical
// empty rectangle used as the identity element of Union.
type Rect struct {
	Lo, Hi Point
}

// NewRect returns a rectangle with the given corners. It panics if the corner
// dimensionalities differ (programming error).
func NewRect(lo, hi Point) Rect {
	mustSameDim(len(lo), len(hi))
	return Rect{Lo: lo, Hi: hi}
}

// EmptyRect returns the canonical empty rectangle of dimensionality d
// (Lo = +inf, Hi = -inf), the identity element of Union.
func EmptyRect(d int) Rect {
	lo := make(Point, d)
	hi := make(Point, d)
	for i := 0; i < d; i++ {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	return Rect{Lo: lo, Hi: hi}
}

// UnitCube returns [0,1]^d, the canonical data space of the paper.
func UnitCube(d int) Rect {
	lo := make(Point, d)
	hi := make(Point, d)
	for i := 0; i < d; i++ {
		hi[i] = 1
	}
	return Rect{Lo: lo, Hi: hi}
}

// PointRect returns the degenerate rectangle containing exactly p.
func PointRect(p Point) Rect { return Rect{Lo: p.Clone(), Hi: p.Clone()} }

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// Clone returns an independent copy of r.
func (r Rect) Clone() Rect { return Rect{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()} }

// IsEmpty reports whether r contains no point.
func (r Rect) IsEmpty() bool {
	for i := range r.Lo {
		if r.Lo[i] > r.Hi[i] {
			return true
		}
	}
	return len(r.Lo) == 0
}

// Equal reports whether r and s are identical.
func (r Rect) Equal(s Rect) bool { return r.Lo.Equal(s.Lo) && r.Hi.Equal(s.Hi) }

// Contains reports whether p lies in r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	mustSameDim(r.Dim(), len(p))
	for i := range p {
		if p[i] < r.Lo[i] || p[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s is entirely inside r. An empty s is contained
// in everything.
func (r Rect) ContainsRect(s Rect) bool {
	mustSameDim(r.Dim(), s.Dim())
	if s.IsEmpty() {
		return true
	}
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] || s.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	mustSameDim(r.Dim(), s.Dim())
	for i := range r.Lo {
		if r.Lo[i] > s.Hi[i] || s.Lo[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// IntersectsSphere reports whether r intersects the closed Euclidean ball
// around center with the given radius.
func (r Rect) IntersectsSphere(center Point, radius float64) bool {
	return Euclidean{}.MinDist2(center, r) <= radius*radius
}

// Union returns the MBR of r and s.
func (r Rect) Union(s Rect) Rect {
	mustSameDim(r.Dim(), s.Dim())
	out := r.Clone()
	for i := range out.Lo {
		if s.Lo[i] < out.Lo[i] {
			out.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > out.Hi[i] {
			out.Hi[i] = s.Hi[i]
		}
	}
	return out
}

// UnionInPlace extends r to cover s without allocating.
func (r *Rect) UnionInPlace(s Rect) {
	mustSameDim(r.Dim(), s.Dim())
	for i := range r.Lo {
		if s.Lo[i] < r.Lo[i] {
			r.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] > r.Hi[i] {
			r.Hi[i] = s.Hi[i]
		}
	}
}

// ExtendPoint grows r to cover p without allocating.
func (r *Rect) ExtendPoint(p Point) {
	mustSameDim(r.Dim(), len(p))
	for i := range p {
		if p[i] < r.Lo[i] {
			r.Lo[i] = p[i]
		}
		if p[i] > r.Hi[i] {
			r.Hi[i] = p[i]
		}
	}
}

// Intersect returns the common part of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	mustSameDim(r.Dim(), s.Dim())
	out := r.Clone()
	for i := range out.Lo {
		if s.Lo[i] > out.Lo[i] {
			out.Lo[i] = s.Lo[i]
		}
		if s.Hi[i] < out.Hi[i] {
			out.Hi[i] = s.Hi[i]
		}
	}
	return out
}

// Volume returns the d-dimensional volume of r (0 if empty or degenerate).
func (r Rect) Volume() float64 {
	if r.IsEmpty() {
		return 0
	}
	v := 1.0
	for i := range r.Lo {
		v *= r.Hi[i] - r.Lo[i]
	}
	return v
}

// IntersectionVolume returns the volume of r ∩ s without allocating.
func (r Rect) IntersectionVolume(s Rect) float64 {
	mustSameDim(r.Dim(), s.Dim())
	v := 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], s.Lo[i])
		hi := math.Min(r.Hi[i], s.Hi[i])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// EnlargedVolume returns the volume of the MBR of r and s without allocating.
func (r Rect) EnlargedVolume(s Rect) float64 {
	mustSameDim(r.Dim(), s.Dim())
	v := 1.0
	for i := range r.Lo {
		lo := math.Min(r.Lo[i], s.Lo[i])
		hi := math.Max(r.Hi[i], s.Hi[i])
		if hi < lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// Margin returns the sum of the edge lengths of r (the R*-tree split
// heuristic's "margin"; in 2-D this is half the perimeter).
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	m := 0.0
	for i := range r.Lo {
		m += r.Hi[i] - r.Lo[i]
	}
	return m
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	c := make(Point, r.Dim())
	for i := range c {
		c[i] = (r.Lo[i] + r.Hi[i]) / 2
	}
	return c
}

// Extent returns Hi[i] - Lo[i].
func (r Rect) Extent(i int) float64 { return r.Hi[i] - r.Lo[i] }

// ClampInPlace moves p coordinate-wise to the nearest point inside r. It is
// the projection used by the out-of-bounds query fallback: for a point outside
// the data space, the clamped point is the closest in-space location.
func (r Rect) ClampInPlace(p Point) {
	mustSameDim(r.Dim(), len(p))
	for i := range p {
		if p[i] < r.Lo[i] {
			p[i] = r.Lo[i]
		} else if p[i] > r.Hi[i] {
			p[i] = r.Hi[i]
		}
	}
}

// ContainsFlat reports whether p lies in the rectangle stored at lo/hi, two
// flat coordinate slices of length len(p). This is the SoA form of
// Rect.Contains used by the flat leaf layout of the tree indexes: the
// coordinates of consecutive entries are contiguous in memory, so a scan over
// a node touches cache lines linearly and exits on the first separating
// dimension.
func ContainsFlat(p Point, lo, hi []float64) bool {
	lo = lo[:len(p)]
	hi = hi[:len(p)]
	for i, v := range p {
		if v < lo[i] || v > hi[i] {
			return false
		}
	}
	return true
}

// Dist2Flat returns the squared Euclidean distance between p and the point
// stored at q, a flat coordinate slice of length len(p). Same operations in
// the same order as Euclidean.Dist2, so results are bitwise identical; used
// against SoA point mirrors where consecutive points are contiguous.
func Dist2Flat(p Point, q []float64) float64 {
	q = q[:len(p)]
	s := 0.0
	for i, v := range p {
		d := v - q[i]
		s += d * d
	}
	return s
}

// MinDist2Stride returns the squared Euclidean distance from p to rectangle i
// of a dimension-major SoA mirror holding stride rectangles: dimension j of
// rectangle i lives at lo[j*stride+i] / hi[j*stride+i]. It performs the same
// operations in the same order as Euclidean.MinDist2, so results are bitwise
// identical.
func MinDist2Stride(p Point, lo, hi []float64, i, stride int) float64 {
	s := 0.0
	for j, v := range p {
		at := j*stride + i
		switch {
		case v < lo[at]:
			d := lo[at] - v
			s += d * d
		case v > hi[at]:
			d := v - hi[at]
			s += d * d
		}
	}
	return s
}

// SplitAt cuts r at coordinate c in dimension dim and returns the lower and
// upper parts. The cut is clamped to r's extent, so one part may be
// degenerate (zero extent) but never inverted.
func (r Rect) SplitAt(dim int, c float64) (lower, upper Rect) {
	c = math.Max(r.Lo[dim], math.Min(r.Hi[dim], c))
	lower = r.Clone()
	upper = r.Clone()
	lower.Hi[dim] = c
	upper.Lo[dim] = c
	return lower, upper
}

// String renders the rectangle as "[lo .. hi]".
func (r Rect) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%v .. %v]", r.Lo, r.Hi)
	return b.String()
}
