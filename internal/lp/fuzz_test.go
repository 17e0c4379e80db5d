package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Shape bits of FuzzSolversAgree: the degenerate inputs the NN-cell pipeline
// feeds the simplex on top of the dense random ones.
const (
	fuzzAxisObjective = 1 << iota // c = ±e_j, the only objectives the product solves
	fuzzDuplicateRows             // every third row repeats an earlier one, rescaled
	fuzzZeroRow                   // one all-zero row with b ≥ 0
	// fuzzFlatCone: c = +e_j and every other row leaves x_j free and passes
	// within 10⁻⁴ of one point, so that no pivot moves the objective: a long
	// enough run of zero-step pivots switches the solve to Bland's rule.
	fuzzFlatCone
)

// fuzzProblem builds FuzzSolversAgree's problem and objective: d ≤ 16
// variables over the unit box, m rows, shaped by the shape bits.
func fuzzProblem(seed int64, dRaw, mRaw, shape uint8) (*Problem, []float64) {
	d := 1 + int(dRaw%16)
	m := int(mRaw)
	rng := rand.New(rand.NewSource(seed))
	p := &Problem{NumVars: d, Lo: make([]float64, d), Hi: make([]float64, d)}
	for j := 0; j < d; j++ {
		p.Hi[j] = 1
	}
	var apex []float64 // fuzzFlatCone's point and free coordinate
	flat := 0
	if shape&fuzzFlatCone != 0 {
		apex = make([]float64, d)
		for j := range apex {
			apex[j] = rng.Float64()
		}
		flat = rng.Intn(d)
	}
	for i := 0; i < m; i++ {
		a := make([]float64, d)
		var b float64
		switch {
		case shape&fuzzDuplicateRows != 0 && i%3 == 2:
			src, scale := p.Cons[rng.Intn(i)], 0.25+4*rng.Float64()
			for j := range a {
				a[j] = scale * src.A[j]
			}
			b = scale * src.B
		case shape&fuzzZeroRow != 0 && i == m/2:
			b = math.Abs(rng.NormFloat64())
		case shape&fuzzFlatCone != 0:
			for j := range a {
				if j != flat {
					a[j] = rng.NormFloat64()
					b += a[j] * apex[j]
				}
			}
			b += 1e-4 * rng.Float64()
		default:
			for j := range a {
				a[j] = rng.NormFloat64()
			}
			// Allow infeasible systems too: b is unconstrained around 0.
			b = rng.NormFloat64()
		}
		p.Cons = append(p.Cons, Constraint{A: a, B: b})
	}
	c := make([]float64, d)
	switch {
	case shape&fuzzFlatCone != 0:
		c[flat] = 1
	case shape&fuzzAxisObjective != 0:
		c[rng.Intn(d)] = float64(1 - 2*rng.Intn(2))
	default:
		for j := range c {
			c[j] = rng.NormFloat64()
		}
	}
	return p, c
}

// FuzzSolversAgree drives the simplex from a fuzzed seed on every kernel set
// and checks that the sets agree bit for bit (vertex, value, tight set, pivot
// count, error), that a reported optimum is feasible and, up to d = 5, where
// Seidel's expected O(d!·m) cost allows, that Seidel agrees on feasibility
// and optimal value. Run with `go test -fuzz FuzzSolversAgree` for
// exploration; the seed corpus runs in normal `go test`.
func FuzzSolversAgree(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(5), uint8(0))
	f.Add(int64(2), uint8(4), uint8(20), uint8(0))
	f.Add(int64(3), uint8(3), uint8(1), uint8(0))
	f.Add(int64(42), uint8(0), uint8(13), uint8(0))
	f.Add(int64(5), uint8(4), uint8(25), uint8(fuzzAxisObjective))
	f.Add(int64(6), uint8(3), uint8(18), uint8(fuzzAxisObjective|fuzzDuplicateRows))
	f.Add(int64(7), uint8(4), uint8(9), uint8(fuzzZeroRow))
	f.Add(int64(8), uint8(2), uint8(29), uint8(fuzzAxisObjective|fuzzDuplicateRows|fuzzZeroRow))
	// The AVX2 kernels' shapes: extent objectives at d = 8 (m = 64, an
	// NN-Direction cell), 12 and 16, where the O(d²) kernels run, a dense one
	// at d = 6, where only pricing does, and m of every residue mod 4.
	f.Add(int64(9), uint8(7), uint8(64), uint8(fuzzAxisObjective))
	f.Add(int64(10), uint8(11), uint8(97), uint8(fuzzAxisObjective|fuzzDuplicateRows))
	f.Add(int64(11), uint8(15), uint8(130), uint8(fuzzAxisObjective|fuzzZeroRow))
	f.Add(int64(12), uint8(5), uint8(39), uint8(fuzzDuplicateRows|fuzzZeroRow))
	// A Bland's-rule entry: no pivot of a flat cone moves the objective, and
	// this one takes 55 at d = 16, past the 2·d + 20 = 52 zero-step pivots
	// after which both choices go to the lowest column.
	f.Add(int64(5407), uint8(15), uint8(223), uint8(fuzzFlatCone))
	f.Fuzz(func(t *testing.T, seed int64, dRaw, mRaw, shape uint8) {
		p, c := fuzzProblem(seed, dRaw, mRaw, shape)
		res, err := solveOnKernelSets(t, p, c)
		results := []*Result{res}
		if p.NumVars <= 5 {
			rq, errQ := MaximizeSeidel(p, c, rand.New(rand.NewSource(seed)))
			if (err == nil) != (errQ == nil) {
				t.Fatalf("feasibility disagreement: simplex=%v seidel=%v", err, errQ)
			}
			if err == nil && math.Abs(res.Value-rq.Value) > 1e-5*(1+math.Abs(res.Value)) {
				t.Fatalf("value disagreement: %v vs %v", res.Value, rq.Value)
			}
			results = append(results, rq)
		}
		if err != nil {
			return
		}
		for _, res := range results {
			for i, con := range p.Cons {
				s := 0.0
				for j := range con.A {
					s += con.A[j] * res.X[j]
				}
				if s > con.B+1e-6*(1+math.Abs(con.B)) {
					t.Fatalf("constraint %d violated: %v > %v", i, s, con.B)
				}
			}
		}
	})
}
