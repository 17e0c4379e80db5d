package vec

import "math"

// Metric is a distance function on points. The paper's definition of NN-cells
// is parameterized over an arbitrary distance function d: R^d × R^d → R+; the
// LP-based MBR construction additionally requires the bisector of two points
// to be a hyperplane, which holds for the Euclidean metric, the only one
// implemented. The tree indexes and the sequential scan take any Metric.
type Metric interface {
	// Dist returns the distance between p and q.
	Dist(p, q Point) float64
	// Dist2 returns a monotone surrogate of Dist (for Euclidean: the squared
	// distance) that is cheaper to compute and safe to use for comparisons.
	Dist2(p, q Point) float64
	// MinDist2 returns the surrogate distance from p to the closest point of
	// the rectangle r (0 if p lies inside r). Used for branch-and-bound.
	MinDist2(p Point, r Rect) float64
	// Name identifies the metric in experiment output.
	Name() string
}

// Euclidean is the L2 metric, the paper's default.
type Euclidean struct{}

// Dist returns the Euclidean distance between p and q.
func (Euclidean) Dist(p, q Point) float64 { return math.Sqrt(Euclidean{}.Dist2(p, q)) }

// Dist2 returns the squared Euclidean distance between p and q.
func (Euclidean) Dist2(p, q Point) float64 {
	mustSameDim(len(p), len(q))
	s := 0.0
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return s
}

// MinDist2 returns the squared Euclidean distance from p to rectangle r.
func (Euclidean) MinDist2(p Point, r Rect) float64 {
	mustSameDim(len(p), r.Dim())
	s := 0.0
	for i := range p {
		switch {
		case p[i] < r.Lo[i]:
			d := r.Lo[i] - p[i]
			s += d * d
		case p[i] > r.Hi[i]:
			d := p[i] - r.Hi[i]
			s += d * d
		}
	}
	return s
}

// Name implements Metric.
func (Euclidean) Name() string { return "L2" }

// MinMaxDist2 returns the squared MINMAXDIST of Roussopoulos et al. [RKV 95]
// from point p to rectangle r under the Euclidean metric: the smallest upper
// bound on the distance from p to the closest object contained in r. It is
// used by the branch-and-bound NN search to prune subtrees.
func MinMaxDist2(p Point, r Rect) float64 {
	mustSameDim(len(p), r.Dim())
	// S = sum over all dims of max-edge contribution.
	total := 0.0
	rmSq := make([]float64, len(p)) // (p_k - rm_k)^2
	rMSq := make([]float64, len(p)) // (p_k - rM_k)^2
	for k := range p {
		rm := r.Lo[k]
		if p[k] <= (r.Lo[k]+r.Hi[k])/2 {
			rm = r.Lo[k]
		} else {
			rm = r.Hi[k]
		}
		rM := r.Lo[k]
		if p[k] >= (r.Lo[k]+r.Hi[k])/2 {
			rM = r.Lo[k]
		} else {
			rM = r.Hi[k]
		}
		d1 := p[k] - rm
		d2 := p[k] - rM
		rmSq[k] = d1 * d1
		rMSq[k] = d2 * d2
		total += rMSq[k]
	}
	best := math.Inf(1)
	for k := range p {
		v := total - rMSq[k] + rmSq[k]
		if v < best {
			best = v
		}
	}
	return best
}
