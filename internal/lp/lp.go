// Package lp solves the small-dimension, many-constraint linear programs at
// the heart of the paper's NN-cell construction:
//
//	maximize    c·x
//	subject to  a_i·x ≤ b_i   (i = 1..m)
//	            lo ≤ x ≤ hi   (the data-space box)
//
// Computing the MBR approximation of a Voronoi cell requires 2·d such LPs per
// data point (maximize +x_j and −x_j for every dimension j), where the a_i are
// bisector half-spaces — up to N−1 of them for the paper's "Correct"
// algorithm. The defining characteristic is d ≤ ~20 variables but potentially
// tens of thousands of constraints, so the package provides:
//
//   - Solver: a reusable dual revised simplex. The dual of an LP with d
//     variables and m constraints has a d×d basis regardless of m; each
//     iteration scans the m columns once (O(m·d)) and updates the basis
//     inverse in product form (O(d²)), re-synchronizing it from the basis
//     columns every refactorEvery pivots. Because the data-space box rows are
//     always present, a dual-feasible starting basis and its inverse exist in
//     closed form and no phase-1 is ever needed. A Solver validates the
//     constraint set and scales its rows to unit Euclidean norm once (Load),
//     then solves any number of objectives over it (Solve) without heap
//     allocation — exactly the access pattern of the 2·d extent LPs of one
//     cell, which share one constraint set. Those objectives are ±e_j, whose
//     starting basis is degenerate in d − 1 rows; the ratio test's
//     largest-pivot tie-break (see Solve) is what keeps them to about a dozen
//     pivots each.
//
//     The O(m·d) pricing scan and the O(d²) steps of a pivot — π = w_B·B⁻¹,
//     the entering direction u = B⁻¹·M_k and the product-form update — are
//     Go loops, the reference and every other machine's kernels. On amd64
//     with AVX2 (internal/cpu) kernel_amd64.s runs them four float64 lanes
//     wide instead: pricing always, over a dimension-major copy of the user
//     columns that Load writes, and at d a multiple of four also the box
//     columns' pricing and the O(d²) steps. Each kernel computes the floats
//     of the loop it replaces (a multiply, then an add or subtract, in the
//     loop's order; no FMA), and pricing keeps a minimum per lane that breaks
//     ties toward the lower column as the Go scan does, so both kernel sets
//     take the same pivots to the same bits.
//
//   - Maximize: the one-shot convenience wrapper over a throwaway Solver.
//
//   - MaximizeSeidel: Seidel's randomized incremental algorithm [Sei 90],
//     cited by the paper as the expected O(d!·n) bound for its LP step. It is
//     implemented independently of the simplex and serves as a cross-checking
//     oracle in tests (practical for small d).
//
// All solvers return the optimal vertex, the objective value, and the set of
// tight constraints.
package lp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cpu"
)

// Numerical tolerances. Inputs are expected to be normalized to roughly unit
// scale (the NN-cell pipeline works inside [0,1]^d); the simplex additionally
// rescales each row to unit Euclidean norm, Seidel to unit infinity norm.
const (
	tolPivot  = 1e-11 // smallest acceptable pivot magnitude
	tolRed    = 1e-9  // reduced-cost optimality tolerance
	tolRatio  = 1e-12 // ratio-test degeneracy tolerance
	maxPivots = 50000 // hard iteration cap (defensive; never hit in practice)

	// refactorEvery is the number of product-form updates after which B⁻¹ is
	// recomputed from the basis columns. An update divides by a pivot the
	// ratio test has bounded away from zero (> tolPivot, on columns of unit
	// Euclidean norm), so each one adds a rounding error of a few ulps of the
	// entries it combines; re-synchronizing caps how many of those can add up,
	// which keeps the drift orders of magnitude below tolRed — the tolerance
	// at which optimality is decided and the NN-cell pipeline pads its MBRs.
	// The extent LPs of a cell take ~12 pivots (TestExtentPivotCounts), so
	// nearly all of them never re-sync; dense objectives over hundreds of rows
	// at d = 16 do (TestProductFormAgreesWithRefactor).
	refactorEvery = 32
)

// Package-level error conditions.
var (
	// ErrInfeasible is returned when no point satisfies all constraints and
	// the box bounds simultaneously.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrNumeric is returned when the solver could not make progress within
	// its iteration budget, indicating severe degeneracy or bad scaling.
	ErrNumeric = errors.New("lp: numerical difficulty, iteration limit reached")
	// ErrNotLoaded is returned by Solver.Solve and Solver.SetBounds before a
	// successful Load.
	ErrNotLoaded = errors.New("lp: Solve before Load")
)

// Constraint is a single half-space a·x ≤ b.
type Constraint struct {
	A []float64
	B float64
}

// Problem is a linear program over box-bounded variables. The box is
// mandatory: it is what guarantees boundedness and gives the dual simplex its
// closed-form starting basis. Lo and Hi must satisfy Lo[i] <= Hi[i].
type Problem struct {
	NumVars int
	Cons    []Constraint
	Lo, Hi  []float64
}

// Validate checks structural consistency of the problem.
func (p *Problem) Validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("lp: NumVars = %d, want > 0", p.NumVars)
	}
	if len(p.Lo) != p.NumVars || len(p.Hi) != p.NumVars {
		return fmt.Errorf("lp: bounds have length %d/%d, want %d", len(p.Lo), len(p.Hi), p.NumVars)
	}
	for i := range p.Lo {
		if !(p.Lo[i] <= p.Hi[i]) { // also catches NaN
			return fmt.Errorf("lp: bound %d inverted or NaN: [%v, %v]", i, p.Lo[i], p.Hi[i])
		}
	}
	for i, c := range p.Cons {
		if len(c.A) != p.NumVars {
			return fmt.Errorf("lp: constraint %d has %d coefficients, want %d", i, len(c.A), p.NumVars)
		}
	}
	return nil
}

// Result is the outcome of a successful solve.
type Result struct {
	// X is an optimal vertex.
	X []float64
	// Value is the objective value c·X.
	Value float64
	// Tight lists indices into Problem.Cons of the user constraints that are
	// binding at X according to the final basis. Box rows are not reported.
	Tight []int
	// Iterations is the number of simplex pivots (or Seidel base solves).
	Iterations int
}

// Maximize solves the problem with the dual revised simplex. It returns
// ErrInfeasible if the constraint set excludes the entire box. The returned
// Result is owned by the caller. Hot paths that solve many objectives over
// one constraint set should use a Solver directly.
func Maximize(p *Problem, c []float64) (*Result, error) {
	var s Solver
	if err := s.Load(p); err != nil {
		return nil, err
	}
	res, err := s.Solve(c)
	if err != nil {
		return nil, err
	}
	out := &Result{
		X:          append([]float64(nil), res.X...),
		Value:      res.Value,
		Tight:      append([]int(nil), res.Tight...),
		Iterations: res.Iterations,
	}
	return out, nil
}

// Solver is a reusable dual revised simplex. The zero value is ready for use:
//
//	var s lp.Solver
//	s.Load(problem)        // validate + scale rows to unit length, once
//	for each objective c:
//	    res, err := s.Solve(c)   // zero heap allocations when warm
//
// Load captures the constraint set; Solve runs one objective over it;
// SetBounds swaps the variable box without re-normalizing the constraints
// (the NN-cell decomposition solves the same bisector set over many slab
// boxes). All scratch state — the basis, its inverse, the row-normalized
// constraint matrix (one flat backing array, and its dimension-major copy for
// the pricing kernel) and the pricing buffers — lives in the Solver and is
// grown on demand, so a warm Solver allocates nothing.
//
// The Result returned by Solve aliases solver-owned buffers and is valid only
// until the next Solve or Load; callers that keep results must copy them
// (Maximize does). A Solver must not be used from multiple goroutines
// concurrently; build pipelines use one Solver per worker.
type Solver struct {
	d, m   int
	lo, hi []float64 // caller's box (not copied)

	// Dual constraint matrix. Column layout (d rows): columns 0..m-1 are the
	// user constraints, row-normalized to unit Euclidean norm; columns
	// m..m+d-1 are the box upper rows (+e_j), columns m+d..m+2d-1 the box
	// lower rows (−e_j). User columns are stored in one flat backing array,
	// column j at cons[j*d : (j+1)*d].
	cons []float64
	// consT holds the user columns again, dimension-major — entry i of
	// column k at consT[i*len(wPad)+k] — for priceAVX2, which reads four
	// columns at a time; wPad is w of the user columns. Both are padded to a
	// multiple of four columns with zero columns whose w is +Inf, which never
	// price below zero.
	consT []float64
	wPad  []float64
	w     []float64 // dual objective: normalized b, then hi, then -lo

	c     []float64 // current primal objective (not copied; set per Solve)
	basis []int     // d column indices

	binv     [][]float64 // B⁻¹, d rows into binvFlat
	binvFlat []float64
	mat      [][]float64 // refactor scratch [B | I], d rows × 2d into matFlat
	matFlat  []float64

	nz      []int     // indices of the non-zeros of c
	lambda  []float64 // dual basic values B⁻¹ c
	pi      []float64 // simplex multipliers w_B B⁻¹
	wb      []float64 // w_B, the dual objective of the basic columns
	red     []float64 // priceAVX2's reduced costs of the user columns
	lanes   laneMinima
	u       []float64 // entering column in basis coordinates
	colbuf  []float64 // refactor's column scratch
	inBasis []bool    // per column, valid during a Solve

	x     []float64 // result vertex buffer
	tight []int     // result tight-set buffer
	res   Result
}

// Load validates p, row-normalizes its constraints into the solver's flat
// matrix, and sizes all scratch state. It may be called any number of times;
// buffers are reused across Loads whenever they are large enough.
func (s *Solver) Load(p *Problem) error {
	if err := p.Validate(); err != nil {
		return err
	}
	d, m := p.NumVars, len(p.Cons)
	s.sizeScratch(d, m)
	s.d, s.m = d, m
	s.lo, s.hi = p.Lo, p.Hi
	for j := range p.Cons {
		con := &p.Cons[j]
		col := s.cons[j*d : (j+1)*d]
		// Normalize each row to unit Euclidean norm: w_k − π·M_k is then the
		// signed distance from π to the constraint's hyperplane, so pricing
		// compares cuts by depth. A zero row is either trivially satisfiable
		// (b >= 0, kept as a zero column that can never enter the basis) or
		// infeasible.
		scale := 0.0
		for _, a := range con.A {
			scale += a * a
		}
		b := con.B
		if scale > 0 {
			inv := 1 / math.Sqrt(scale)
			for i, a := range con.A {
				col[i] = a * inv
			}
			b *= inv
		} else {
			clear(col)
		}
		s.w[j] = b
	}
	cols := len(s.wPad)
	for k := 0; k < cols; k++ {
		if k >= m {
			for i := 0; i < d; i++ {
				s.consT[i*cols+k] = 0
			}
			s.wPad[k] = math.Inf(1)
			continue
		}
		for i, a := range s.cons[k*d : (k+1)*d] {
			s.consT[i*cols+k] = a
		}
		s.wPad[k] = s.w[k]
	}
	s.loadBoxW()
	return nil
}

// SetBounds replaces the variable box of the loaded problem, keeping the
// normalized constraint matrix. This is the per-slab fast path of the NN-cell
// decomposition: O(d) instead of the O(m·d) of a full Load.
func (s *Solver) SetBounds(lo, hi []float64) error {
	if s.d == 0 {
		return ErrNotLoaded
	}
	if len(lo) != s.d || len(hi) != s.d {
		return fmt.Errorf("lp: bounds have length %d/%d, want %d", len(lo), len(hi), s.d)
	}
	for i := range lo {
		if !(lo[i] <= hi[i]) { // also catches NaN
			return fmt.Errorf("lp: bound %d inverted or NaN: [%v, %v]", i, lo[i], hi[i])
		}
	}
	s.lo, s.hi = lo, hi
	s.loadBoxW()
	return nil
}

// loadBoxW writes the box rows' dual objective entries.
func (s *Solver) loadBoxW() {
	d, m := s.d, s.m
	for j := 0; j < d; j++ {
		s.w[m+j] = s.hi[j]
		s.w[m+d+j] = -s.lo[j]
	}
}

// sizeScratch (re)sizes every buffer for dimension d and m constraints.
func (s *Solver) sizeScratch(d, m int) {
	s.cons = growFloat(s.cons, m*d)
	cols := (m + 3) &^ 3
	s.consT = growFloat(s.consT, cols*d)
	s.wPad = growFloat(s.wPad, cols)
	s.red = growFloat(s.red, cols)
	s.w = growFloat(s.w, m+2*d)
	s.inBasis = growBool(s.inBasis, m+2*d)
	if cap(s.basis) < d {
		s.basis = make([]int, d)
	} else {
		s.basis = s.basis[:d]
	}
	if cap(s.tight) < d {
		s.tight = make([]int, 0, d)
	}
	if cap(s.nz) < d {
		s.nz = make([]int, 0, d)
	}
	s.lambda = growFloat(s.lambda, d)
	s.pi = growFloat(s.pi, d)
	s.wb = growFloat(s.wb, d)
	s.u = growFloat(s.u, d)
	s.colbuf = growFloat(s.colbuf, d)
	s.x = growFloat(s.x, d)
	if d != len(s.binv) {
		s.binvFlat = growFloat(s.binvFlat, d*d)
		s.binv = resliceRows(s.binv, s.binvFlat, d, d)
		s.matFlat = growFloat(s.matFlat, d*2*d)
		s.mat = resliceRows(s.mat, s.matFlat, d, 2*d)
	}
}

func growFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// resliceRows carves rows of the given width out of one flat backing array.
func resliceRows(rows [][]float64, flat []float64, n, width int) [][]float64 {
	if cap(rows) < n {
		rows = make([][]float64, n)
	} else {
		rows = rows[:n]
	}
	for i := range rows {
		rows[i] = flat[i*width : (i+1)*width]
	}
	return rows
}

// column materializes dual column k into dst.
func (s *Solver) column(k int, dst []float64) {
	switch {
	case k < s.m:
		copy(dst, s.cons[k*s.d:(k+1)*s.d])
	case k < s.m+s.d:
		for i := range dst {
			dst[i] = 0
		}
		dst[k-s.m] = 1
	default:
		for i := range dst {
			dst[i] = 0
		}
		dst[k-s.m-s.d] = -1
	}
}

// Solve maximizes c over the loaded problem.
//
// Method. The dual of {max c·x : Ax ≤ b} is {min b·y : Aᵀy = c, y ≥ 0}. We
// fold the box into A as 2·d extra rows (+e_j ≤ hi_j and −e_j ≤ −lo_j), so
// the columns of Aᵀ include ±e_j for every dimension. Picking, for each j,
// the +e_j column when c_j ≥ 0 and the −e_j column otherwise yields a basis
// B = diag(±1) = B⁻¹ with B⁻¹c = |c| ≥ 0 — a dual-feasible starting point
// with no phase-1 and no factorization.
//
// Pricing (price) is Dantzig's rule: the most negative reduced cost, which on
// rows of unit Euclidean norm is the constraint the current vertex violates by
// the largest distance. The ratio test breaks its ties toward the largest pivot
// element u_i. That is what keeps an extent objective from stalling: c = ±e_j
// starts with d − 1 zero multipliers, so every early ratio is a tie at zero,
// and the largest |u_i| is the basis column the entering one can replace with
// the best-conditioned exchange. A run of more than 2·d + 20 zero-step pivots
// switches both choices to Bland's lowest-index rule, which guarantees
// termination.
func (s *Solver) Solve(c []float64) (*Result, error) {
	if s.d == 0 {
		return nil, ErrNotLoaded
	}
	if len(c) != s.d {
		return nil, fmt.Errorf("lp: objective has %d coefficients, want %d", len(c), s.d)
	}
	s.c = c
	d, m := s.d, s.m
	lambda, pi, wb, u, inBasis := s.lambda, s.pi, s.wb, s.u, s.inBasis
	basis, binv, cons, w := s.basis, s.binv, s.cons, s.w

	// Starting basis: signed identity from box rows, which is its own inverse.
	// inBasis is set here once and then follows the pivots, two flips each.
	clear(inBasis)
	nz := s.nz[:0] // the non-zeros of c: one for an extent objective
	for j := 0; j < d; j++ {
		row := binv[j]
		clear(row)
		if c[j] >= 0 {
			basis[j] = m + j // +e_j column
			row[j] = 1
		} else {
			basis[j] = m + d + j // -e_j column
			row[j] = -1
		}
		inBasis[basis[j]] = true
		if c[j] != 0 {
			nz = append(nz, j)
		}
	}

	// The AVX2 kernels of the O(d²) steps run four entries of a row at a
	// time, so they need rows of whole vectors.
	quads := cpu.AVX2 && d%4 == 0
	degenerate := 0
	bland := false
	for iters := 0; iters < maxPivots; iters++ {
		// lambda = B⁻¹ c and pi = w_B B⁻¹
		for i, row := range binv {
			v := 0.0
			for _, j := range nz {
				v += row[j] * c[j]
			}
			lambda[i] = v
			wb[i] = w[basis[i]]
		}
		if quads {
			piAVX2(pi, wb, s.binvFlat)
		} else {
			clear(pi)
			for i, row := range binv {
				wbi := wb[i]
				for j, b := range row {
					pi[j] += wbi * b
				}
			}
		}

		enter := s.price(bland)
		if enter < 0 {
			return s.finish(pi, lambda, iters)
		}

		// Direction u = B⁻¹ M_enter.
		switch {
		case enter < m && quads:
			uAVX2(u, s.binvFlat, cons[enter*d:(enter+1)*d])
		case enter < m:
			col := cons[enter*d : (enter+1)*d]
			for i, row := range binv {
				v := 0.0
				for j, b := range row {
					v += b * col[j]
				}
				u[i] = v
			}
		case enter < m+d:
			for i, row := range binv {
				u[i] = row[enter-m]
			}
		default:
			for i, row := range binv {
				u[i] = -row[enter-m-d]
			}
		}

		// Ratio test: the leaving row minimizes lambda_i / u_i over u_i > 0;
		// among ties, the largest u_i (the lowest column index under Bland).
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < d; i++ {
			if u[i] <= tolPivot {
				continue
			}
			ratio := lambda[i] / u[i]
			switch {
			case ratio < bestRatio-tolRatio:
				bestRatio, leave = ratio, i
			case ratio < bestRatio+tolRatio && tieBreak(bland, u[i], u[leave], basis[i], basis[leave]):
				bestRatio, leave = math.Min(ratio, bestRatio), i
			}
		}
		if leave < 0 {
			// Dual unbounded ⇒ primal infeasible.
			return nil, ErrInfeasible
		}
		if bestRatio < tolRatio {
			degenerate++
			if degenerate > 2*d+20 {
				bland = true
			}
		} else {
			degenerate = 0
		}

		inBasis[basis[leave]] = false
		inBasis[enter] = true
		basis[leave] = enter
		if (iters+1)%refactorEvery == 0 {
			if err := s.refactor(); err != nil {
				return nil, err
			}
			continue
		}
		// Product-form update: the new basis differs from the old in column
		// `leave` only, so B⁻¹ changes by one elementary row operation per
		// row, driven by the direction u already computed for the ratio test.
		inv := 1 / u[leave]
		if quads {
			updateAVX2(s.binvFlat, u, leave, inv)
			continue
		}
		pivotRow := binv[leave]
		for j := range pivotRow {
			pivotRow[j] *= inv
		}
		for i, row := range binv {
			if f := u[i]; i != leave && f != 0 {
				for j, p := range pivotRow {
					row[j] -= f * p
				}
			}
		}
	}
	return nil, ErrNumeric
}

// price returns the entering column: the non-basic one with the most
// negative reduced cost w_k − π·M_k (the lowest column among equals), under
// Bland's rule the first negative one, or −1 at optimality. User columns go
// four at a time, each with its own accumulator and its subtractions in index
// order, so a reduced cost is the same float whichever lane computed it;
// basic columns are priced like the rest and turned away only if they would
// win. With AVX2 the user columns, and at d a multiple of four the box
// columns, are priceLanes'.
func (s *Solver) price(bland bool) int {
	d, m := s.d, s.m
	pi, cons, w, inBasis := s.pi, s.cons, s.w, s.inBasis
	enter := -1
	bestRed := -tolRed
	k := 0
	if cpu.AVX2 {
		var done bool
		if enter, bestRed, done = s.priceLanes(bland); done {
			return enter
		}
		k = m // the box columns follow in the loop below
	}
	for ; k+4 <= m; k += 4 {
		c0 := cons[k*d : k*d+d][:len(pi)]
		c1 := cons[(k+1)*d : (k+1)*d+d][:len(pi)]
		c2 := cons[(k+2)*d : (k+2)*d+d][:len(pi)]
		c3 := cons[(k+3)*d : (k+3)*d+d][:len(pi)]
		r0, r1, r2, r3 := w[k], w[k+1], w[k+2], w[k+3]
		for i, p := range pi {
			r0 -= p * c0[i]
			r1 -= p * c1[i]
			r2 -= p * c2[i]
			r3 -= p * c3[i]
		}
		if r0 < bestRed || r1 < bestRed || r2 < bestRed || r3 < bestRed {
			for t, red := range [4]float64{r0, r1, r2, r3} {
				if red < bestRed && !inBasis[k+t] {
					if bland {
						return k + t
					}
					bestRed, enter = red, k+t
				}
			}
		}
	}
	for ; k < m+2*d; k++ {
		var red float64
		switch {
		case k < m:
			red = w[k]
			col := cons[k*d : (k+1)*d]
			for i, p := range pi {
				red -= p * col[i]
			}
		case k < m+d:
			red = w[k] - pi[k-m]
		default:
			red = w[k] + pi[k-m-d]
		}
		if red < bestRed && !inBasis[k] {
			if bland {
				return k
			}
			bestRed, enter = red, k
		}
	}
	return enter
}

// laneMinima is what priceAVX2 leaves per lane l: the least reduced cost
// below the threshold among the columns it priced in that lane and the first
// column that reached it, or the threshold and −1.
type laneMinima struct {
	red [4]float64
	col [4]int
}

// priceLanes is price's scan of the user columns and, at d a multiple of
// four, of the box columns on the AVX2 kernels: priceAVX2 computes the
// reduced costs of the Go loops and keeps each lane's minimum, so only the
// winner of the four lanes is looked at here. The stored reduced costs are
// scanned as the Go loops do only if that winner is basic or Bland's rule
// wants the first negative column rather than the least. It returns the
// entering column so far and its reduced cost, and done if that is price's
// answer; if not, the box columns remain.
func (s *Solver) priceLanes(bland bool) (enter int, bestRed float64, done bool) {
	d, m, inBasis := s.d, s.m, s.inBasis
	enter, bestRed = -1, -tolRed
	var wBox []float64
	if d%4 == 0 {
		wBox = s.w[m : m+2*d]
	}
	lanes := &s.lanes
	priceAVX2(s.consT, s.wPad, s.pi, s.red, wBox, m, bestRed, lanes)
	for l, red := range lanes.red {
		if col := lanes.col[l]; red < bestRed || red == bestRed && col < enter {
			bestRed, enter = red, col
		}
	}
	if enter >= 0 && (bland || inBasis[enter]) {
		enter, bestRed = -1, -tolRed
		for k, red := range s.red[:m] {
			if red < bestRed && !inBasis[k] {
				if bland {
					return k, red, true
				}
				bestRed, enter = red, k
			}
		}
		return enter, bestRed, false
	}
	return enter, bestRed, wBox != nil
}

// tieBreak reports whether row i replaces the current leaving row when their
// ratios tie: the larger pivot element wins, or under Bland's rule the lower
// column index.
func tieBreak(bland bool, ui, uLeave float64, ki, kLeave int) bool {
	if bland {
		return ki < kLeave
	}
	return ui > uLeave
}

// finish recovers the primal vertex from the final basis. At dual optimality
// every reduced cost w_k − π·M_k is ≥ 0, i.e. a_k·π ≤ b_k for all primal
// constraints, with equality on the basic columns — so the simplex
// multipliers π are exactly the complementary primal vertex, and
// c·π = w_B·λ is the optimal value by strong duality.
func (s *Solver) finish(pi, lambda []float64, iters int) (*Result, error) {
	d := s.d
	copy(s.x, pi)
	val := 0.0
	for j := 0; j < d; j++ {
		val += s.c[j] * s.x[j]
	}
	tight := s.tight[:0]
	for i, k := range s.basis {
		if k < s.m && lambda[i] > tolRed {
			tight = append(tight, k)
		}
	}
	s.tight = tight
	s.res = Result{X: s.x, Value: val, Iterations: iters}
	if len(tight) > 0 {
		s.res.Tight = tight
	}
	return &s.res, nil
}

// refactor recomputes binv = B⁻¹ from the basis columns into the preallocated
// scratch matrix (O(d³)), discarding whatever rounding error the product-form
// updates since the last call have accumulated.
func (s *Solver) refactor() error {
	d := s.d
	mat := s.mat
	col := s.colbuf
	for j, k := range s.basis {
		s.column(k, col)
		for i := 0; i < d; i++ {
			mat[i][j] = col[i]
		}
	}
	for i := 0; i < d; i++ {
		right := mat[i][d:]
		for j := range right {
			right[j] = 0
		}
		right[i] = 1
	}
	// Gauss-Jordan with partial pivoting on the augmented [B | I].
	for c := 0; c < d; c++ {
		p := c
		for r := c + 1; r < d; r++ {
			if math.Abs(mat[r][c]) > math.Abs(mat[p][c]) {
				p = r
			}
		}
		if math.Abs(mat[p][c]) < tolPivot {
			return fmt.Errorf("lp: singular basis (pivot %e in column %d)", mat[p][c], c)
		}
		mat[c], mat[p] = mat[p], mat[c]
		inv := 1 / mat[c][c]
		for j := 0; j < 2*d; j++ {
			mat[c][j] *= inv
		}
		for r := 0; r < d; r++ {
			if r == c || mat[r][c] == 0 {
				continue
			}
			f := mat[r][c]
			for j := 0; j < 2*d; j++ {
				mat[r][j] -= f * mat[c][j]
			}
		}
	}
	for i := 0; i < d; i++ {
		copy(s.binv[i], mat[i][d:])
	}
	return nil
}
