package lp

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/cpu"
)

// avx2Available is whether this CPU runs the AVX2 kernels, read before any
// test switches them.
var avx2Available = cpu.AVX2

var kernelFlag = flag.String("kernel", "", "go: run the package's tests on the portable Go kernels, not the CPU's best")

// TestMain applies -kernel: `go test ./internal/lp/ -args -kernel=go` runs
// the whole suite on the portable kernels.
func TestMain(m *testing.M) {
	flag.Parse()
	switch *kernelFlag {
	case "":
	case "go":
		cpu.AVX2 = false
	default:
		fmt.Fprintf(os.Stderr, "-kernel=%s: the one set to force is go\n", *kernelFlag)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// kernelSets lists the kernel sets this CPU runs, the portable one first.
func kernelSets() []string {
	if avx2Available {
		return []string{"go", "avx2"}
	}
	return []string{"go"}
}

// useKernelSet switches the kernels to set and returns the call that switches
// them back.
func useKernelSet(set string) (restore func()) {
	saved := cpu.AVX2
	cpu.AVX2 = set == "avx2"
	return func() { cpu.AVX2 = saved }
}

// forKernelSets runs f as one subtest per kernel set the CPU runs.
func forKernelSets(t *testing.T, f func(t *testing.T)) {
	for _, set := range kernelSets() {
		t.Run("kernel="+set, func(t *testing.T) {
			defer useKernelSet(set)()
			f(t)
		})
	}
}

// solveOnKernelSets maximizes c over p on every kernel set the CPU runs and
// fails t unless they agree bit for bit: the vertex, the value, the tight
// set, the pivot count and the error. It returns the portable set's outcome.
func solveOnKernelSets(t *testing.T, p *Problem, c []float64) (*Result, error) {
	t.Helper()
	var first *Result
	var firstErr error
	for i, set := range kernelSets() {
		restore := useKernelSet(set)
		res, err := Maximize(p, c)
		restore()
		if i == 0 {
			first, firstErr = res, err
			continue
		}
		if (err == nil) != (firstErr == nil) || err != nil && err.Error() != firstErr.Error() {
			t.Fatalf("d=%d m=%d: error %v on %s, %v on go", p.NumVars, len(p.Cons), err, set, firstErr)
		}
		if err == nil && !sameResult(res, first) {
			t.Fatalf("d=%d m=%d: %s solved to %+v, go to %+v", p.NumVars, len(p.Cons), set, *res, *first)
		}
	}
	return first, firstErr
}

// sameResult reports whether a and b are the same bits.
func sameResult(a, b *Result) bool {
	return math.Float64bits(a.Value) == math.Float64bits(b.Value) && a.Iterations == b.Iterations &&
		slices.Equal(a.Tight, b.Tight) &&
		slices.EqualFunc(a.X, b.X, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestKernelSetsAgree solves on every kernel set and compares bit for bit, at
// every d from 1 to 16 (the O(d²) kernels run at multiples of four) and at m
// of every residue mod 4 around 0 and around the 8·d rows of an NN-Direction
// cell (the pricing kernel pads the user columns to a multiple of four): the
// 2·d extent objectives and two dense ones over a bisector set with
// duplicate and axis-parallel rows, over a Gaussian polytope, and again after
// SetBounds shrinks the box. Each kernel set keeps one Solver across all the
// shapes, so buffers sized for one shape serve the next.
func TestKernelSetsAgree(t *testing.T) {
	if !avx2Available {
		t.Skip("this CPU runs the go kernels only")
	}
	rng := rand.New(rand.NewSource(39))
	var onGo, onAVX2 Solver
	solves := 0
	for d := 1; d <= 16; d++ {
		for _, m := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8*d - 1, 8 * d, 8*d + 1, 8*d + 2} {
			for _, p := range []*Problem{bisectorProblem(rng, d, m), gaussianProblem(rng, d, m)} {
				objectives := make([][]float64, 0, 2*d+2)
				for j := 0; j < 2*d+2; j++ {
					c := make([]float64, d)
					if j < 2*d {
						c[j/2] = float64(1 - 2*(j%2))
					} else {
						for i := range c {
							c[i] = rng.NormFloat64()
						}
					}
					objectives = append(objectives, c)
				}
				lo, hi := make([]float64, d), make([]float64, d)
				for j := range hi {
					lo[j], hi[j] = 0.25*rng.Float64(), 1-0.25*rng.Float64()
				}
				for _, s := range []*Solver{&onGo, &onAVX2} {
					if err := s.Load(p); err != nil {
						t.Fatal(err)
					}
				}
				for pass := 0; pass < 2; pass++ {
					for _, c := range objectives {
						restore := useKernelSet("go")
						want, wantErr := onGo.Solve(c)
						restore()
						restore = useKernelSet("avx2")
						got, err := onAVX2.Solve(c)
						restore()
						solves++
						if (err == nil) != (wantErr == nil) || err == nil && !sameResult(got, want) {
							t.Fatalf("d=%d m=%d pass %d c=%v: avx2 %+v (%v), go %+v (%v)", d, m, pass, c, got, err, want, wantErr)
						}
					}
					for _, s := range []*Solver{&onGo, &onAVX2} {
						if err := s.SetBounds(lo, hi); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
	t.Logf("%d solves the same on both kernel sets", solves)
}
