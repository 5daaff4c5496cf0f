package thermal

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
	"repro/internal/matrix"
)

// Tests for the zero-allocation stepping path: StepTo/SteadyStateInto/
// ExtendPowerInto must be bit-identical to the allocating APIs (the engine
// swaps between them freely) and must not allocate.

func destModel(t testing.TB, w, h int) *Model {
	t.Helper()
	fp, err := floorplan.New(w, h, 0.0009)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randPower(r *rand.Rand, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = r.Float64() * 8
	}
	return p
}

func TestPropStepToBitIdenticalToStep(t *testing.T) {
	m := destModel(t, 4, 4)
	s, err := m.NewStepper(0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tv := m.InitialTemps()
		for i := range tv {
			tv[i] += r.Float64() * 20
		}
		p := randPower(r, m.NumCores())
		want := s.Step(tv, p)
		dst := make([]float64, m.NumNodes())
		s.StepTo(dst, tv, p)
		for i := range dst {
			if dst[i] != want[i] {
				return false
			}
		}
		// In-place stepping (dst aliases t) must give the same answer.
		s.StepTo(tv, tv, p)
		for i := range tv {
			if tv[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropSteadyStateIntoBitIdentical(t *testing.T) {
	m := destModel(t, 4, 4)
	s, err := m.NewStepper(0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPower(r, m.NumCores())
		want := m.SteadyState(p)
		dst := make([]float64, m.NumNodes())
		s.SteadyStateInto(dst, p)
		for i := range dst {
			if dst[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// The dense steady state multiplies only the core columns of B⁻¹. That must
// be the full N-column product of the zero-extended power vector, bit for
// bit, for the stepper and the model alike — zero core powers included.
func TestPropSteadyStateCoreColumnsBitIdenticalToFullProduct(t *testing.T) {
	m := destModel(t, 8, 8)
	s, err := m.NewStepper(0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPower(r, m.NumCores())
		for i := range p {
			if r.Intn(4) == 0 {
				p[i] = 0
			}
		}
		want := make([]float64, m.NumNodes())
		m.BInv().MulVecTo(want, m.ExtendPower(p))
		matrix.VecAddTo(want, m.AmbientSteady())
		viaStepper := make([]float64, m.NumNodes())
		s.SteadyStateInto(viaStepper, p)
		viaModel := make([]float64, m.NumNodes())
		m.SteadyStateTo(viaModel, p)
		return bitIdentical(viaStepper, want) && bitIdentical(viaModel, want) &&
			bitIdentical(m.SteadyState(p), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
	dst, p := make([]float64, m.NumNodes()), randPower(rand.New(rand.NewSource(1)), m.NumCores())
	if a := testing.AllocsPerRun(10, func() { m.SteadyStateTo(dst, p) }); a != 0 {
		t.Errorf("dense SteadyStateTo allocates %v per run, want 0", a)
	}
}

func bitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestExtendPowerIntoClearsStaleTail(t *testing.T) {
	m := destModel(t, 4, 4)
	dst := make([]float64, m.NumNodes())
	for i := range dst {
		dst[i] = 99
	}
	p := make([]float64, m.NumCores())
	p[3] = 7
	m.ExtendPowerInto(dst, p)
	want := m.ExtendPower(p)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("node %d: ExtendPowerInto = %v, ExtendPower = %v", i, dst[i], want[i])
		}
	}
}

func TestTransientMatchesManualStepLoop(t *testing.T) {
	m := destModel(t, 4, 4)
	s, err := m.NewStepper(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	powers := make([][]float64, 6)
	for i := range powers {
		powers[i] = randPower(r, m.NumCores())
	}
	traj := s.Transient(m.InitialTemps(), powers)
	if len(traj) != len(powers)+1 {
		t.Fatalf("trajectory has %d rows, want %d", len(traj), len(powers)+1)
	}
	cur := m.InitialTemps()
	for i := range cur {
		if traj[0][i] != cur[i] {
			t.Fatal("trajectory row 0 is not the initial state")
		}
	}
	for e, p := range powers {
		cur = s.Step(cur, p)
		for i := range cur {
			if traj[e+1][i] != cur[i] {
				t.Fatalf("trajectory row %d differs from Step loop at node %d", e+1, i)
			}
		}
	}
}

// Transient must not alias its rows: mutating one row leaves the rest intact.
func TestTransientRowsIndependent(t *testing.T) {
	m := destModel(t, 4, 4)
	s, err := m.NewStepper(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	p := randPower(rand.New(rand.NewSource(1)), m.NumCores())
	traj := s.Transient(m.InitialTemps(), [][]float64{p, p})
	traj[1][0] = -1000
	if traj[0][0] == -1000 || traj[2][0] == -1000 {
		t.Fatal("Transient rows share storage")
	}
}

func TestStepToZeroAllocs(t *testing.T) {
	m := destModel(t, 8, 8)
	s, err := m.NewStepper(0.1e-3)
	if err != nil {
		t.Fatal(err)
	}
	temps := m.InitialTemps()
	p := randPower(rand.New(rand.NewSource(5)), m.NumCores())
	if a := testing.AllocsPerRun(100, func() { s.StepTo(temps, temps, p) }); a != 0 {
		t.Errorf("StepTo allocates %v per run, want 0", a)
	}
	dst := make([]float64, m.NumNodes())
	if a := testing.AllocsPerRun(100, func() { s.SteadyStateInto(dst, p) }); a != 0 {
		t.Errorf("SteadyStateInto allocates %v per run, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { m.ExtendPowerInto(dst, p) }); a != 0 {
		t.Errorf("ExtendPowerInto allocates %v per run, want 0", a)
	}
}

// --- hot-loop step baseline (make bench → BENCH_hotloop.json) ---------------

func benchStepper(b *testing.B) (*Stepper, []float64, []float64) {
	b.Helper()
	m := destModel(b, 8, 8)
	s, err := m.NewStepper(0.1e-3)
	if err != nil {
		b.Fatal(err)
	}
	return s, m.InitialTemps(), randPower(rand.New(rand.NewSource(5)), m.NumCores())
}

func BenchmarkHotloopStepAlloc(b *testing.B) {
	s, temps, p := benchStepper(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		temps = s.Step(temps, p)
	}
}

func BenchmarkHotloopStepTo(b *testing.B) {
	s, temps, p := benchStepper(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.StepTo(temps, temps, p)
	}
}

// --- solver scaling baselines (docs/PERFORMANCE.md "Scaling to big chips") --

// benchSolverStepper builds a model at edge×edge with the given solver and
// returns its stepper plus a state to advance.
func benchSolverStepper(b *testing.B, edge int, solver string) (*Stepper, []float64, []float64) {
	b.Helper()
	fp, err := floorplan.New(edge, edge, 0.0009)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Solver = solver
	m, err := New(fp, cfg)
	if err != nil {
		b.Fatal(err)
	}
	s, err := m.NewStepper(0.1e-3)
	if err != nil {
		b.Fatal(err)
	}
	return s, m.InitialTemps(), randPower(rand.New(rand.NewSource(5)), m.NumCores())
}

// BenchmarkHotloopStepSparse times the matrix-free Krylov transient step at
// the chip sizes of the scaling study (the 8×8 paper chip stays dense and is
// covered by BenchmarkHotloopStepTo).
func BenchmarkHotloopStepSparse(b *testing.B) {
	for _, edge := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("%dx%d", edge, edge), func(b *testing.B) {
			s, temps, p := benchSolverStepper(b, edge, SolverSparse)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepTo(temps, temps, p)
			}
		})
	}
}

// BenchmarkHotloopStepDense is the dense per-step cost at the same sizes —
// the denominator of the sparse speedups pinned in CI. At 16×16 the real
// dense model is built and stepped. At 32×32 and 64×64 the dense setup is
// not feasible inside a benchmark run (O(N³) eigendecomposition; the N×N
// propagator alone is ≈0.5 GB at 64×64), so the per-step cost is measured on
// a synthetic N×N matrix driving exactly the work a dense StepTo performs:
// one B⁻¹ product over the n core columns (the steady-state solve) plus one
// full propagator matvec, with the O(N) vector ops in between. That is the floor of what the dense path
// would cost per step if one could afford to build it, so the reported
// speedup is an underestimate.
func BenchmarkHotloopStepDense(b *testing.B) {
	b.Run("16x16", func(b *testing.B) {
		s, temps, p := benchSolverStepper(b, 16, SolverDense)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.StepTo(temps, temps, p)
		}
	})
	for _, edge := range []int{32, 64} {
		b.Run(fmt.Sprintf("%dx%d", edge, edge), func(b *testing.B) {
			N := 2*edge*edge + 1
			rng := rand.New(rand.NewSource(7))
			kernel := matrix.New(N, N) // stands in for both B⁻¹ and e^{C·dt}
			for i := 0; i < N; i++ {
				for j := 0; j < N; j++ {
					kernel.Set(i, j, rng.Float64()*1e-3)
				}
			}
			temps := make([]float64, N)
			tss := make([]float64, N)
			diff := make([]float64, N)
			p := make([]float64, edge*edge) // per-core power
			for i := range p {
				p[i] = rng.Float64() * 8
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel.MulVecPrefixTo(tss, p)
				matrix.VecSubTo(diff, temps, tss)
				kernel.MulVecTo(temps, diff)
				matrix.VecAddTo(temps, tss)
			}
		})
	}
}
