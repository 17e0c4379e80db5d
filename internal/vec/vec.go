// Package vec provides the d-dimensional vector and hyper-rectangle kernel
// used by every index structure in this repository: points, distance metrics,
// and minimum bounding rectangle (MBR) algebra.
//
// All geometry in the paper lives in a bounded data space, canonically the
// unit hypercube [0,1]^d. Points are plain []float64 slices wrapped in the
// Point type; MBRs are pairs of corner points. The package is allocation
// conscious: operations that are called per-entry in tree traversals
// (MinDist, Contains, Volume, ...) do not allocate.
package vec

import (
	"fmt"
	"strings"
)

// Point is a location in d-dimensional space. The dimensionality is the slice
// length; all operations require operands of equal dimensionality and panic
// otherwise (mixing dimensionalities is a programming error, not a runtime
// condition).
type Point []float64

// Dim returns the dimensionality of the point.
func (p Point) Dim() int { return len(p) }

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q are identical in every coordinate.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Dot returns the inner product of p and q.
func (p Point) Dot(q Point) float64 {
	mustSameDim(len(p), len(q))
	s := 0.0
	for i := range p {
		s += p[i] * q[i]
	}
	return s
}

// Norm2 returns the squared Euclidean norm of p.
func (p Point) Norm2() float64 { return p.Dot(p) }

// String renders the point with a compact fixed precision, e.g. "(0.25, 0.75)".
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", v)
	}
	b.WriteByte(')')
	return b.String()
}

func mustSameDim(a, b int) {
	if a != b {
		panic(fmt.Sprintf("vec: dimensionality mismatch: %d vs %d", a, b))
	}
}
