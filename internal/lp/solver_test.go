package lp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestSolverMatchesMaximize checks that a reused Solver is bit-for-bit
// identical to the one-shot Maximize on shared seeds — same vertex, value,
// tight set and pivot count — across many problems and the 2·d axis
// objectives of the NN-cell extent loop.
func TestSolverMatchesMaximize(t *testing.T) {
	rng := rand.New(rand.NewSource(1998))
	var s Solver // one solver reused across all trials
	for trial := 0; trial < 200; trial++ {
		d := 2 + rng.Intn(6)
		m := 1 + rng.Intn(50)
		p, _ := feasibleProblem(rng, d, m)
		if err := s.Load(p); err != nil {
			t.Fatalf("trial %d: Load: %v", trial, err)
		}
		c := make([]float64, d)
		for j := 0; j < d; j++ {
			for _, sign := range []float64{1, -1} {
				c[j] = sign
				rs, err := s.Solve(c)
				if err != nil {
					t.Fatalf("trial %d: Solve: %v", trial, err)
				}
				rm, err := Maximize(p, c)
				if err != nil {
					t.Fatalf("trial %d: Maximize: %v", trial, err)
				}
				if rs.Value != rm.Value {
					t.Fatalf("trial %d dim %d sign %v: Solver value %v != Maximize value %v",
						trial, j, sign, rs.Value, rm.Value)
				}
				for i := range rs.X {
					if rs.X[i] != rm.X[i] {
						t.Fatalf("trial %d: X[%d] = %v vs %v", trial, i, rs.X[i], rm.X[i])
					}
				}
				if rs.Iterations != rm.Iterations {
					t.Fatalf("trial %d: iterations %d vs %d", trial, rs.Iterations, rm.Iterations)
				}
				if len(rs.Tight) != len(rm.Tight) {
					t.Fatalf("trial %d: tight sets %v vs %v", trial, rs.Tight, rm.Tight)
				}
				for i := range rs.Tight {
					if rs.Tight[i] != rm.Tight[i] {
						t.Fatalf("trial %d: tight sets %v vs %v", trial, rs.Tight, rm.Tight)
					}
				}
			}
			c[j] = 0
		}
	}
}

// TestSolverMatchesSeidel cross-checks the reused Solver against the
// independently implemented Seidel oracle on shared seeds.
func TestSolverMatchesSeidel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s Solver
	for trial := 0; trial < 150; trial++ {
		d := 2 + rng.Intn(4)
		m := 1 + rng.Intn(30)
		p, _ := feasibleProblem(rng, d, m)
		if err := s.Load(p); err != nil {
			t.Fatalf("trial %d: Load: %v", trial, err)
		}
		c := make([]float64, d)
		for j := range c {
			c[j] = rng.NormFloat64()
		}
		rs, err := s.Solve(c)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		checkFeasible(t, p, rs.X, "solver")
		rq, err := MaximizeSeidel(p, c, rng)
		if err != nil {
			t.Fatalf("trial %d: seidel: %v", trial, err)
		}
		if diff := math.Abs(rs.Value - rq.Value); diff > 1e-6*(1+math.Abs(rs.Value)) {
			t.Fatalf("trial %d (d=%d m=%d): solver %v vs seidel %v", trial, d, m, rs.Value, rq.Value)
		}
	}
}

// TestSolverSetBounds checks the slab fast path: SetBounds must agree with a
// full Load of the same problem under the new box.
func TestSolverSetBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s Solver
	for trial := 0; trial < 100; trial++ {
		d := 2 + rng.Intn(4)
		m := 2 + rng.Intn(25)
		p, p0 := feasibleProblem(rng, d, m)
		if err := s.Load(p); err != nil {
			t.Fatalf("trial %d: Load: %v", trial, err)
		}
		// A random sub-box around the known feasible point.
		lo := make([]float64, d)
		hi := make([]float64, d)
		for j := 0; j < d; j++ {
			lo[j] = p0[j] * rng.Float64()
			hi[j] = p0[j] + (1-p0[j])*rng.Float64()
		}
		if err := s.SetBounds(lo, hi); err != nil {
			t.Fatalf("trial %d: SetBounds: %v", trial, err)
		}
		c := make([]float64, d)
		c[rng.Intn(d)] = 1
		rs, err := s.Solve(c)
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}
		sub := &Problem{NumVars: d, Cons: p.Cons, Lo: lo, Hi: hi}
		rm, err := Maximize(sub, c)
		if err != nil {
			t.Fatalf("trial %d: Maximize: %v", trial, err)
		}
		if rs.Value != rm.Value {
			t.Fatalf("trial %d: SetBounds value %v != Load value %v", trial, rs.Value, rm.Value)
		}
	}
}

// TestSolverErrors covers the not-loaded and bad-objective paths.
func TestSolverErrors(t *testing.T) {
	var s Solver
	if _, err := s.Solve([]float64{1}); err != ErrNotLoaded {
		t.Fatalf("Solve before Load: got %v, want ErrNotLoaded", err)
	}
	if err := s.SetBounds([]float64{0}, []float64{1}); err != ErrNotLoaded {
		t.Fatalf("SetBounds before Load: got %v, want ErrNotLoaded", err)
	}
	p := &Problem{NumVars: 2, Lo: []float64{0, 0}, Hi: []float64{1, 1}}
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve([]float64{1}); err == nil {
		t.Fatal("short objective accepted")
	}
	if err := s.SetBounds([]float64{0}, []float64{1}); err == nil {
		t.Fatal("short bounds accepted")
	}
	if err := s.SetBounds([]float64{1, 1}, []float64{0, 0}); err == nil {
		t.Fatal("inverted bounds accepted")
	}
}

// TestSolverZeroAllocWarm pins the tentpole property: a warm Solver solves
// without any heap allocation — Load once, then the 2·d extent objectives of
// a cell run alloc-free.
func TestSolverZeroAllocWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d, m := 8, 300
	p, _ := feasibleProblem(rng, d, m)
	var s Solver
	if err := s.Load(p); err != nil {
		t.Fatal(err)
	}
	c := make([]float64, d)
	solveAll := func() {
		for j := 0; j < d; j++ {
			c[j] = 1
			if _, err := s.Solve(c); err != nil {
				t.Fatal(err)
			}
			c[j] = -1
			if _, err := s.Solve(c); err != nil {
				t.Fatal(err)
			}
			c[j] = 0
		}
	}
	solveAll() // warm up
	if allocs := testing.AllocsPerRun(20, solveAll); allocs != 0 {
		t.Fatalf("warm Solve loop allocates %v per 2d-extent batch, want 0", allocs)
	}
	// Reloading the same shape must stay alloc-free too (the per-cell path).
	reload := func() {
		if err := s.Load(p); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(c); err != nil {
			t.Fatal(err)
		}
	}
	c[0] = 1
	reload()
	if allocs := testing.AllocsPerRun(20, reload); allocs != 0 {
		t.Fatalf("warm Load+Solve allocates %v, want 0", allocs)
	}
}

// solveRefactorEveryPivot is the reference the product-form Solve is checked
// against: the same dual simplex on the same loaded Solver (same pricing,
// ratio test and tolerances), but with B⁻¹ recomputed from the basis columns
// by Gauss-Jordan after every pivot, so its inverse never carries update
// drift.
func solveRefactorEveryPivot(s *Solver, c []float64) (*Result, error) {
	d, m := s.d, s.m
	s.c = c
	for j := 0; j < d; j++ {
		s.basis[j] = m + j
		if c[j] < 0 {
			s.basis[j] = m + d + j
		}
	}
	degenerate, bland := 0, false
	for iters := 0; iters < maxPivots; iters++ {
		if err := s.refactor(); err != nil {
			return nil, err
		}
		for i := 0; i < d; i++ {
			s.lambda[i], s.pi[i] = 0, 0
			for j := 0; j < d; j++ {
				s.lambda[i] += s.binv[i][j] * c[j]
				s.pi[i] += s.w[s.basis[j]] * s.binv[j][i]
			}
		}
		enter, bestRed := -1, -tolRed
		for k := 0; k < m+2*d && !(bland && enter >= 0); k++ {
			basic := false
			for _, b := range s.basis {
				basic = basic || b == k
			}
			if basic {
				continue
			}
			s.column(k, s.colbuf)
			red := s.w[k]
			for i := 0; i < d; i++ {
				red -= s.pi[i] * s.colbuf[i]
			}
			if red < bestRed {
				enter = k
				if !bland {
					bestRed = red
				}
			}
		}
		if enter < 0 {
			return s.finish(s.pi, s.lambda, iters)
		}
		s.column(enter, s.colbuf)
		leave, bestRatio := -1, math.Inf(1)
		for i := 0; i < d; i++ {
			s.u[i] = 0
			for j := 0; j < d; j++ {
				s.u[i] += s.binv[i][j] * s.colbuf[j]
			}
			if s.u[i] > tolPivot {
				ratio := s.lambda[i] / s.u[i]
				switch {
				case ratio < bestRatio-tolRatio:
					bestRatio, leave = ratio, i
				case ratio < bestRatio+tolRatio && tieBreak(bland, s.u[i], s.u[leave], s.basis[i], s.basis[leave]):
					bestRatio, leave = math.Min(ratio, bestRatio), i
				}
			}
		}
		if leave < 0 {
			return nil, ErrInfeasible
		}
		if bestRatio < tolRatio {
			if degenerate++; degenerate > 2*d+20 {
				bland = true
			}
		} else {
			degenerate = 0
		}
		s.basis[leave] = enter
	}
	return nil, ErrNumeric
}

// bisector returns the half-space of the points at least as close to p as to
// q: 2(q − p)·x ≤ ‖q‖² − ‖p‖².
func bisector(p, q []float64) Constraint {
	a := make([]float64, len(p))
	b := 0.0
	for j := range a {
		a[j] = 2 * (q[j] - p[j])
		b += q[j]*q[j] - p[j]*p[j]
	}
	return Constraint{A: a, B: b}
}

// bisectorProblem builds the constraint set of one NN-cell: the bisector
// half-spaces between a point of the unit cube and m others. About one row in
// eight repeats an earlier one, verbatim or rescaled (a duplicate neighbor,
// the degenerate-vertex case the ratio test's tie-break exists for), and some
// neighbors differ from the center in a single coordinate (axis-parallel
// bisectors, parallel to box rows).
func bisectorProblem(rng *rand.Rand, d, m int) *Problem {
	center := make([]float64, d)
	for j := range center {
		center[j] = rng.Float64()
	}
	p := &Problem{NumVars: d, Lo: make([]float64, d), Hi: make([]float64, d)}
	for j := range p.Hi {
		p.Hi[j] = 1
	}
	for len(p.Cons) < m {
		switch r := rng.Float64(); {
		case len(p.Cons) > 0 && r < 0.125:
			src := p.Cons[rng.Intn(len(p.Cons))]
			scale := 1.0
			if rng.Intn(2) == 0 {
				scale = 0.25 + 4*rng.Float64()
			}
			a := make([]float64, d)
			for j := range a {
				a[j] = scale * src.A[j]
			}
			p.Cons = append(p.Cons, Constraint{A: a, B: scale * src.B})
			continue
		default:
			q := make([]float64, d)
			copy(q, center)
			if r < 0.2 {
				q[rng.Intn(d)] = rng.Float64()
			} else {
				for j := range q {
					q[j] = rng.Float64()
				}
			}
			p.Cons = append(p.Cons, bisector(center, q))
		}
	}
	return p
}

// gaussianProblem builds a polytope of m Gaussian-direction half-spaces, each
// passing within 0.1 of a common interior point of the unit cube — the family
// BenchmarkSolveMBR times. Nothing about it is degenerate, so at d = 16 and
// m ≥ 500 a solve takes several dozen genuine basis exchanges.
func gaussianProblem(rng *rand.Rand, d, m int) *Problem {
	p := &Problem{NumVars: d, Lo: make([]float64, d), Hi: make([]float64, d)}
	center := make([]float64, d)
	for j := range center {
		p.Hi[j] = 1
		center[j] = 0.3 + 0.4*rng.Float64()
	}
	for i := 0; i < m; i++ {
		a := make([]float64, d)
		dot := 0.0
		for j := range a {
			a[j] = rng.NormFloat64()
			dot += a[j] * center[j]
		}
		p.Cons = append(p.Cons, Constraint{A: a, B: dot + 0.1*rng.Float64()})
	}
	return p
}

// TestProductFormAgreesWithRefactor is the property the O(d²) pivot rests on:
// the product-form Solve returns the optimum of the refactor-every-pivot
// reference, and of the independent Seidel oracle, to 1e-9 — over random
// bisector LPs up to d = 16 and m = 128, and over Gaussian polytopes at
// d = 16 and m = 500..1000, whose solves run long enough to cross the periodic
// re-sync (the bisector family no longer does: its extent LPs finish in about
// a dozen pivots). Seidel's expected O(d!·m) cost confines it at d = 16 to
// the problems with m ≤ 32 (all of them take 25 s).
func TestProductFormAgreesWithRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s, ref Solver
	crossedResync := 0
	for trial := 0; trial < 250; trial++ {
		var d, m int
		var p *Problem
		if trial < 240 {
			d, m = []int{2, 4, 8, 16}[trial%4], 1+rng.Intn(128)
			p = bisectorProblem(rng, d, m)
		} else {
			d, m = 16, 500+rng.Intn(501)
			p = gaussianProblem(rng, d, m)
		}
		if err := s.Load(p); err != nil {
			t.Fatalf("trial %d: Load: %v", trial, err)
		}
		if err := ref.Load(p); err != nil {
			t.Fatalf("trial %d: Load: %v", trial, err)
		}
		c := make([]float64, d)
		for obj := 0; obj < 4; obj++ {
			for j := range c {
				c[j] = 0
			}
			if obj < 2 { // an extent objective of the NN-cell loop
				c[rng.Intn(d)] = float64(1 - 2*obj)
			} else {
				for j := range c {
					c[j] = rng.NormFloat64()
				}
			}
			got, err := s.Solve(c)
			if err != nil {
				t.Fatalf("trial %d (d=%d m=%d): Solve: %v", trial, d, m, err)
			}
			if got.Iterations > refactorEvery {
				crossedResync++
			}
			checkFeasible(t, p, got.X, "product form")
			want, err := solveRefactorEveryPivot(&ref, c)
			if err != nil {
				t.Fatalf("trial %d (d=%d m=%d): reference: %v", trial, d, m, err)
			}
			if diff := math.Abs(got.Value - want.Value); diff > 1e-9 {
				t.Fatalf("trial %d (d=%d m=%d): product form %v vs refactor-every-pivot %v (diff %g)",
					trial, d, m, got.Value, want.Value, diff)
			}
			if d > 8 && m > 32 {
				continue
			}
			seidel, err := MaximizeSeidel(p, c, rng)
			if err != nil {
				t.Fatalf("trial %d (d=%d m=%d): seidel: %v", trial, d, m, err)
			}
			if diff := math.Abs(got.Value - seidel.Value); diff > 1e-9 {
				t.Fatalf("trial %d (d=%d m=%d): product form %v vs seidel %v (diff %g)",
					trial, d, m, got.Value, seidel.Value, diff)
			}
		}
	}
	t.Logf("%d solves ran past refactorEvery = %d pivots", crossedResync, refactorEvery)
	if crossedResync == 0 {
		t.Fatal("no solve ran past refactorEvery pivots; the periodic re-sync was never exercised")
	}
}

// cellProblems returns the constraint sets of the first `cells` NN-cells of n
// seeded uniform points in the unit cube as an NN-Direction build forms them:
// the bisector half-spaces between a point and its 8·d nearest neighbours.
func cellProblems(seed int64, n, d, cells int) []*Problem {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = rng.Float64()
		}
	}
	lo, hi := make([]float64, d), make([]float64, d)
	for j := range hi {
		hi[j] = 1
	}
	dist2 := make([]float64, n)
	order := make([]int, n)
	probs := make([]*Problem, cells)
	for i := range probs {
		center := pts[i]
		for k, q := range pts {
			order[k], dist2[k] = k, 0
			for j := range q {
				dist2[k] += (q[j] - center[j]) * (q[j] - center[j])
			}
		}
		sort.Slice(order, func(a, b int) bool { return dist2[order[a]] < dist2[order[b]] })
		p := &Problem{NumVars: d, Lo: lo, Hi: hi}
		for _, k := range order[1 : 1+8*d] { // order[0] is the point itself
			p.Cons = append(p.Cons, bisector(center, pts[k]))
		}
		probs[i] = p
	}
	return probs
}

// TestExtentPivotCounts gates the pivot count of the only LPs the product
// solves — the 2·d objectives ±e_j over a cell's bisector set — so that a
// stall cannot hide behind a green timing. An extent objective starts with
// d − 1 zero multipliers, and a ratio test that breaks those ties by column
// index instead of by pivot size spends most of its pivots at step length zero
// (17.9 per solve at d = 8 and 40.9 at d = 16, against ~8 basis exchanges
// needed). The counts are deterministic — 7.03, 11.64 and 11.56 today, where
// the lowest-index tie-break took 7.76, 17.86 and 40.85 — and no solve may
// reach the 2·d + 20 zero-step pivots that trip the Bland's-rule fallback.
// It runs once per kernel set, which must pivot alike.
func TestExtentPivotCounts(t *testing.T) {
	forKernelSets(t, testExtentPivotCounts)
}

func testExtentPivotCounts(t *testing.T) {
	for _, tc := range []struct {
		d       int
		maxMean float64
	}{{4, 7.4}, {8, 13}, {16, 13}} {
		d := tc.d
		var s Solver
		c := make([]float64, d)
		solves, pivots := 0, 0
		for i, p := range cellProblems(int64(d), 10000, d, 200) {
			if err := s.Load(p); err != nil {
				t.Fatalf("d=%d cell %d: Load: %v", d, i, err)
			}
			for j := 0; j < d; j++ {
				for _, sign := range []float64{1, -1} {
					c[j] = sign
					res, err := s.Solve(c)
					if err != nil {
						t.Fatalf("d=%d cell %d: Solve: %v", d, i, err)
					}
					if res.Iterations > 2*d+20 {
						t.Errorf("d=%d cell %d objective %+.0f·e_%d: %d pivots, want <= 2·d + 20 = %d",
							d, i, sign, j, res.Iterations, 2*d+20)
					}
					solves++
					pivots += res.Iterations
				}
				c[j] = 0
			}
		}
		mean := float64(pivots) / float64(solves)
		t.Logf("d=%d: %d extent solves, %.2f pivots per solve", d, solves, mean)
		if mean > tc.maxMean {
			t.Errorf("d=%d: %.2f pivots per extent solve, want <= %v", d, mean, tc.maxMean)
		}
	}
}

// TestExtentsCoverReferenceVertex checks that the tie-break trades no
// soundness for speed. For every cell of a seeded n = 2000, d = 8
// NN-Direction build, each of the 2·d solved extents must reach the cell's
// optimal vertex as the refactor-every-pivot reference finds it, to 1e-12:
// the MBR assembled from them is then still a superset of the cell (Lemma 1)
// before the index pads it by epsilon = 1e-9. The reference vertex itself
// must satisfy every bisector, or it would vouch for nothing.
func TestExtentsCoverReferenceVertex(t *testing.T) {
	const n, d = 2000, 8
	var s, ref Solver
	c := make([]float64, d)
	worst := 0.0
	for i, p := range cellProblems(2000, n, d, n) {
		if err := s.Load(p); err != nil {
			t.Fatalf("cell %d: Load: %v", i, err)
		}
		if err := ref.Load(p); err != nil {
			t.Fatalf("cell %d: Load: %v", i, err)
		}
		for j := 0; j < d; j++ {
			for _, sign := range []float64{1, -1} {
				c[j] = sign
				got, err := s.Solve(c)
				if err != nil {
					t.Fatalf("cell %d: Solve: %v", i, err)
				}
				want, err := solveRefactorEveryPivot(&ref, c)
				if err != nil {
					t.Fatalf("cell %d: reference: %v", i, err)
				}
				checkFeasible(t, p, want.X, "reference vertex")
				if short := sign*want.X[j] - got.Value; short > 1e-12 {
					t.Fatalf("cell %d objective %+.0f·e_%d: solved extent %v falls %g short of the reference vertex's %v",
						i, sign, j, got.Value, short, sign*want.X[j])
				} else if short > worst {
					worst = short
				}
			}
			c[j] = 0
		}
	}
	t.Logf("%d extents, largest shortfall against the reference vertex %g", 2*d*n, worst)
}
