// Package voronoi computes exact NN-cells (first-order Voronoi cells) in two
// dimensions by half-plane clipping. High-dimensional cells cannot be stored
// explicitly — that is the whole premise of the paper — but in 2-D the exact
// cells are cheap, and this package serves as the geometric ground truth
// against which the LP-based MBR approximations of internal/nncell are
// verified. It also renders ASCII NN-diagrams in the spirit of the paper's
// Figures 1 and 2.
package voronoi

import (
	"fmt"
	"strings"

	"repro/internal/vec"
)

// Polygon is a convex polygon in the plane, counterclockwise, without
// repeated vertices. The empty polygon is nil or has fewer than 3 vertices.
type Polygon []vec.Point

// clipTol absorbs floating-point noise at clip boundaries.
const clipTol = 1e-12

// RectPolygon converts a 2-D rectangle to a CCW polygon.
func RectPolygon(r vec.Rect) Polygon {
	if r.Dim() != 2 {
		panic("voronoi: RectPolygon needs a 2-D rect")
	}
	return Polygon{
		vec.Point{r.Lo[0], r.Lo[1]},
		vec.Point{r.Hi[0], r.Lo[1]},
		vec.Point{r.Hi[0], r.Hi[1]},
		vec.Point{r.Lo[0], r.Hi[1]},
	}
}

// IsEmpty reports whether the polygon has no area.
func (p Polygon) IsEmpty() bool { return len(p) < 3 }

// Area returns the polygon's area (shoelace formula; CCW gives positive).
func (p Polygon) Area() float64 {
	if p.IsEmpty() {
		return 0
	}
	a := 0.0
	for i := range p {
		j := (i + 1) % len(p)
		a += p[i][0]*p[j][1] - p[j][0]*p[i][1]
	}
	return a / 2
}

// MBR returns the bounding rectangle of the polygon.
func (p Polygon) MBR() vec.Rect {
	r := vec.EmptyRect(2)
	for _, v := range p {
		r.ExtendPoint(v)
	}
	return r
}

// Contains reports whether q lies inside or on the boundary of the convex
// polygon.
func (p Polygon) Contains(q vec.Point) bool {
	if p.IsEmpty() {
		return false
	}
	for i := range p {
		j := (i + 1) % len(p)
		// Cross product must be >= 0 for CCW polygons.
		cross := (p[j][0]-p[i][0])*(q[1]-p[i][1]) - (p[j][1]-p[i][1])*(q[0]-p[i][0])
		if cross < -1e-9 {
			return false
		}
	}
	return true
}

// ClipHalfPlane returns the part of the polygon satisfying a·x ≤ b
// (Sutherland–Hodgman against a single edge).
func (p Polygon) ClipHalfPlane(a vec.Point, b float64) Polygon {
	if p.IsEmpty() {
		return nil
	}
	inside := func(v vec.Point) bool { return a[0]*v[0]+a[1]*v[1] <= b+clipTol }
	intersect := func(u, v vec.Point) vec.Point {
		du := a[0]*u[0] + a[1]*u[1] - b
		dv := a[0]*v[0] + a[1]*v[1] - b
		t := du / (du - dv)
		return vec.Point{u[0] + t*(v[0]-u[0]), u[1] + t*(v[1]-u[1])}
	}
	var out Polygon
	for i := range p {
		cur, next := p[i], p[(i+1)%len(p)]
		curIn, nextIn := inside(cur), inside(next)
		switch {
		case curIn && nextIn:
			out = append(out, next)
		case curIn && !nextIn:
			out = append(out, intersect(cur, next))
		case !curIn && nextIn:
			out = append(out, intersect(cur, next), next)
		}
	}
	if len(out) < 3 {
		return nil
	}
	return dedupe(out)
}

func dedupe(p Polygon) Polygon {
	out := p[:0]
	for i, v := range p {
		prev := p[(i+len(p)-1)%len(p)]
		if (vec.Euclidean{}).Dist2(v, prev) > clipTol {
			out = append(out, v)
		}
	}
	if len(out) < 3 {
		return nil
	}
	return out
}

// Bisector returns the half-plane {x : d(x,p) ≤ d(x,q)} as (a, b) with
// a·x ≤ b. For the Euclidean metric this is 2(q−p)·x ≤ ‖q‖² − ‖p‖².
func Bisector(p, q vec.Point) (a vec.Point, b float64) {
	a = vec.Point{2 * (q[0] - p[0]), 2 * (q[1] - p[1])}
	b = q.Norm2() - p.Norm2()
	return a, b
}

// NNCell returns the exact NN-cell of points[i] within bounds: the set of all
// query locations whose nearest neighbor among points is points[i]
// (Definition 2 of the paper, bounded by the data space).
func NNCell(points []vec.Point, i int, bounds vec.Rect) Polygon {
	cell := RectPolygon(bounds)
	for j, q := range points {
		if j == i || cell.IsEmpty() {
			continue
		}
		a, b := Bisector(points[i], q)
		cell = cell.ClipHalfPlane(a, b)
	}
	return cell
}

// Render draws an ASCII NN-diagram: each character cell of the w×h raster is
// labelled with the identity of its nearest point (a–z cycling), with '*'
// marking the data points themselves. It reproduces the visual intuition of
// the paper's Figure 1/2 for documentation and examples.
func Render(points []vec.Point, bounds vec.Rect, w, h int) string {
	if w < 1 || h < 1 {
		panic(fmt.Sprintf("voronoi: invalid raster %dx%d", w, h))
	}
	metric := vec.Euclidean{}
	grid := make([][]byte, h)
	for row := range grid {
		grid[row] = make([]byte, w)
		for col := 0; col < w; col++ {
			x := bounds.Lo[0] + (float64(col)+0.5)/float64(w)*(bounds.Hi[0]-bounds.Lo[0])
			y := bounds.Hi[1] - (float64(row)+0.5)/float64(h)*(bounds.Hi[1]-bounds.Lo[1])
			q := vec.Point{x, y}
			best, bestD := 0, metric.Dist2(q, points[0])
			for i := 1; i < len(points); i++ {
				if d := metric.Dist2(q, points[i]); d < bestD {
					best, bestD = i, d
				}
			}
			grid[row][col] = byte('a' + best%26)
		}
	}
	for i, p := range points {
		col := int((p[0] - bounds.Lo[0]) / (bounds.Hi[0] - bounds.Lo[0]) * float64(w))
		row := int((bounds.Hi[1] - p[1]) / (bounds.Hi[1] - bounds.Lo[1]) * float64(h))
		if col >= 0 && col < w && row >= 0 && row < h {
			grid[row][col] = '*'
			_ = i
		}
	}
	var b strings.Builder
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	return b.String()
}
