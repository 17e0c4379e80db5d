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
)

// FuzzSolversAgree drives both LP solvers from a fuzzed seed and checks that
// they agree on feasibility and optimal value, and that reported optima are
// feasible. Run with `go test -fuzz FuzzSolversAgree` for exploration; the
// seed corpus runs in normal `go test`.
func FuzzSolversAgree(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(5), uint8(0))
	f.Add(int64(2), uint8(4), uint8(20), uint8(0))
	f.Add(int64(3), uint8(3), uint8(1), uint8(0))
	f.Add(int64(42), uint8(5), uint8(13), uint8(0))
	f.Add(int64(5), uint8(4), uint8(25), uint8(fuzzAxisObjective))
	f.Add(int64(6), uint8(3), uint8(18), uint8(fuzzAxisObjective|fuzzDuplicateRows))
	f.Add(int64(7), uint8(4), uint8(9), uint8(fuzzZeroRow))
	f.Add(int64(8), uint8(2), uint8(29), uint8(fuzzAxisObjective|fuzzDuplicateRows|fuzzZeroRow))
	f.Fuzz(func(t *testing.T, seed int64, dRaw, mRaw, shape uint8) {
		d := 1 + int(dRaw%5)
		m := int(mRaw % 30)
		rng := rand.New(rand.NewSource(seed))
		p := &Problem{NumVars: d, Lo: make([]float64, d), Hi: make([]float64, d)}
		for j := 0; j < d; j++ {
			p.Hi[j] = 1
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
		if shape&fuzzAxisObjective != 0 {
			c[rng.Intn(d)] = float64(1 - 2*rng.Intn(2))
		} else {
			for j := range c {
				c[j] = rng.NormFloat64()
			}
		}
		rs, errS := Maximize(p, c)
		rq, errQ := MaximizeSeidel(p, c, rng)
		if (errS == nil) != (errQ == nil) {
			t.Fatalf("feasibility disagreement: simplex=%v seidel=%v", errS, errQ)
		}
		if errS != nil {
			return
		}
		if math.Abs(rs.Value-rq.Value) > 1e-5*(1+math.Abs(rs.Value)) {
			t.Fatalf("value disagreement: %v vs %v", rs.Value, rq.Value)
		}
		for _, res := range []*Result{rs, rq} {
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
