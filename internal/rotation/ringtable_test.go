package rotation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
	"repro/internal/matrix"
	"repro/internal/thermal"
)

// tauLadder is HotPotato's default τ range, 0.125–4 ms by doubling.
var tauLadder = []float64{0.125e-3, 0.25e-3, 0.5e-3, 1e-3, 2e-3, 4e-3}

// TestQuickTablePeakMatchesExactOnGrids is the response-table counterpart of
// TestQuickAnalyticMatchesBruteForceOnGrids: on random 3×3 and 4×4 rings,
// backgrounds, slot powers and epoch lengths, the table peak must agree with
// PeakRingRotation to 1e-9 K.
func TestQuickTablePeakMatchesExactOnGrids(t *testing.T) {
	var evs []*RingEvaluator
	var sizes []int
	for _, wh := range [][2]int{{3, 3}, {4, 4}} {
		evs = append(evs, newCalc(t, wh[0], wh[1], thermal.DefaultConfig()).NewRingEvaluator())
		sizes = append(sizes, wh[0]*wh[1])
	}
	cases := 0
	worst := 0.0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := cases % len(evs)
		cases++
		ev, n := evs[k], sizes[k]
		size := 1 + r.Intn(n)
		ring := r.Perm(n)[:size]
		base := make([]float64, n)
		for i := range base {
			if r.Intn(3) > 0 {
				base[i] = r.Float64() * 6
			}
		}
		slotWatts := make([]float64, size)
		for i := range slotWatts {
			if r.Intn(4) > 0 {
				slotWatts[i] = r.Float64() * 10
			}
		}
		tau := tauLadder[r.Intn(len(tauLadder))] * (0.5 + r.Float64())
		exact, err := ev.PeakRingRotation(tau, base, ring, slotWatts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		table, err := ev.TablePeakRingRotation(tau, base, ring, slotWatts)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		d := math.Abs(table - exact)
		worst = math.Max(worst, d)
		if d > 1e-9 {
			t.Logf("seed %d (ring %v τ=%g): table %.12f vs exact %.12f", seed, ring, tau, table, exact)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	t.Logf("largest |table − exact| over %d cases: %.3g K", cases, worst)
}

// Every ring of the default 8×8 chip at every τ of the ladder, with a
// HotPotato-shaped input: ring-mean background, hot and idle slots.
func TestTablePeakMatchesExactOnDefault8x8Rings(t *testing.T) {
	fp := floorplan.MustNew(8, 8, 0.0009)
	c := newCalc(t, 8, 8, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()
	r := rand.New(rand.NewSource(3))
	base := matrix.Constant(64, 0.3)
	for _, ring := range fp.Rings() {
		mean := 0.3 + r.Float64()*5
		for _, core := range ring.Cores {
			base[core] = mean
		}
	}
	worst := 0.0
	for _, tau := range tauLadder {
		for _, ring := range fp.Rings() {
			slotWatts := make([]float64, len(ring.Cores))
			for i := range slotWatts {
				slotWatts[i] = 0.3
				if r.Intn(2) == 0 {
					slotWatts[i] = 4 + r.Float64()*6
				}
			}
			exact, err := ev.PeakRingRotation(tau, base, ring.Cores, slotWatts)
			if err != nil {
				t.Fatal(err)
			}
			table, err := ev.TablePeakRingRotation(tau, base, ring.Cores, slotWatts)
			if err != nil {
				t.Fatal(err)
			}
			d := math.Abs(table - exact)
			worst = math.Max(worst, d)
			if d > 1e-9 {
				t.Errorf("ring %v τ=%g: table %.12f vs exact %.12f", ring.Cores, tau, table, exact)
			}
		}
	}
	t.Logf("largest |table − exact|: %.3g K", worst)
}

// The table cache and the background memo are scratch: evaluating other
// rings, τ values and backgrounds in between must not change a bit of the
// answer for the first input.
func TestTablePeakCacheReuseIsStateless(t *testing.T) {
	c := newCalc(t, 8, 8, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()
	base := matrix.Constant(64, 0.5)
	ring := []int{27, 28, 36, 35, 34, 26}
	slotWatts := []float64{9, 0.3, 7, 0.3, 6, 0.3}
	first, err := ev.TablePeakRingRotation(0.5e-3, base, ring, slotWatts)
	if err != nil {
		t.Fatal(err)
	}
	otherBase := matrix.Constant(64, 2)
	for _, tau := range tauLadder {
		if _, err := ev.TablePeakRingRotation(tau, otherBase, []int{0, 1, 2, 3, 11, 19}, slotWatts); err != nil {
			t.Fatal(err)
		}
		if _, err := ev.TablePeakRingRotation(tau, base, ring[:4], slotWatts[:4]); err != nil {
			t.Fatal(err)
		}
	}
	again, err := ev.TablePeakRingRotation(0.5e-3, base, ring, slotWatts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := c.NewRingEvaluator().TablePeakRingRotation(0.5e-3, base, ring, slotWatts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(first) != math.Float64bits(again) || math.Float64bits(first) != math.Float64bits(fresh) {
		t.Fatalf("cache reuse changed the answer: %x, then %x, fresh evaluator %x",
			math.Float64bits(first), math.Float64bits(again), math.Float64bits(fresh))
	}
}

// The cache stays within maxTableFloats however many τ values it sees, and
// evicted tables rebuild to the same answer.
func TestRingTableCacheBounded(t *testing.T) {
	c := newCalc(t, 4, 4, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()
	base := matrix.Constant(16, 0.5)
	ring := []int{0, 1, 2, 3, 7, 11, 15, 14, 13, 12, 8, 4}
	slotWatts := make([]float64, len(ring))
	for i := range slotWatts {
		slotWatts[i] = float64(i % 5)
	}
	first, err := ev.TablePeakRingRotation(1e-3, base, ring, slotWatts)
	if err != nil {
		t.Fatal(err)
	}
	perTable := len(ring) * 16
	for i := 0; i < maxTableFloats/perTable+10; i++ {
		if _, err := ev.TablePeakRingRotation(1e-3+float64(i+1)*1e-9, base, ring, slotWatts); err != nil {
			t.Fatal(err)
		}
		if ev.tableFloats > maxTableFloats {
			t.Fatalf("cache holds %d floats, bound %d", ev.tableFloats, maxTableFloats)
		}
	}
	again, err := ev.TablePeakRingRotation(1e-3, base, ring, slotWatts)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("rebuilt table changed the answer: %.15f then %.15f", first, again)
	}
}

// RingBelow is PeakRingRotation's verdict, also at limits inside the table
// margin, where it must fall back to the exact evaluation. Either way one
// verdict counts as one Algorithm-1 evaluation.
func TestRingBelowMatchesExactVerdict(t *testing.T) {
	c := newCalc(t, 8, 8, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()
	base := matrix.Constant(64, 0.5)
	ring := []int{27, 28, 36, 35, 34, 26}
	slotWatts := []float64{9, 0.3, 7, 0.3, 6, 0.3}
	exact, err := ev.PeakRingRotation(0.5e-3, base, ring, slotWatts)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []float64{-1, -2 * TableMargin, -1e-12, 0, math.SmallestNonzeroFloat64, 1e-12, 2 * TableMargin, 1} {
		limit := exact + off
		if off != 0 && limit == exact {
			limit = math.Nextafter(exact, math.Inf(1))
		}
		evals := metricEvals.Value()
		got, err := ev.RingBelow(0.5e-3, base, ring, slotWatts, limit)
		if err != nil {
			t.Fatal(err)
		}
		if want := exact < limit; got != want {
			t.Errorf("limit exact%+g: RingBelow = %v, exact verdict %v", off, got, want)
		}
		if d := metricEvals.Value() - evals; d != 1 {
			t.Errorf("limit exact%+g: RingBelow counted %d evaluations, want 1", off, d)
		}
	}
	if _, err := ev.RingBelow(0.5e-3, base, ring, slotWatts[:2], 80); err == nil {
		t.Error("mismatched slot powers accepted")
	}
}

// Sparse-mode models have no eigenbasis: both table entry points delegate
// to the iterative PeakRingRotation.
func TestRingTableSparseFallback(t *testing.T) {
	_, cs := iterPair(t, 4, 4, fastConfig())
	ev := cs.NewRingEvaluator()
	base := matrix.Constant(16, 1.5)
	ring := []int{0, 5, 10, 15}
	slots := []float64{9, 7, 2, 1}
	want, err := ev.PeakRingRotation(2e-4, base, ring, slots)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.TablePeakRingRotation(2e-4, base, ring, slots)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sparse table peak %.12f, PeakRingRotation %.12f", got, want)
	}
	for _, limit := range []float64{want - 0.01, want + 0.01} {
		below, err := ev.RingBelow(2e-4, base, ring, slots, limit)
		if err != nil {
			t.Fatal(err)
		}
		if below != (want < limit) {
			t.Errorf("sparse RingBelow(limit %.4f) = %v", limit, below)
		}
	}
	if _, err := ev.TablePeakRingRotation(2e-4, base, []int{99}, []float64{1}); err == nil {
		t.Fatal("out-of-range ring core accepted")
	}
}

// After the table is cached, a table evaluation and a verdict allocate
// nothing — also when the background changes between calls.
func TestTablePeakZeroAllocsAfterWarmup(t *testing.T) {
	c := newCalc(t, 8, 8, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()
	bases := [][]float64{matrix.Constant(64, 0.5), matrix.Constant(64, 0.7)}
	ring := []int{27, 28, 36, 35, 34, 26}
	slotWatts := []float64{9, 0.3, 7, 0.3, 6, 0.3}
	i := 0
	a := testing.AllocsPerRun(50, func() {
		i++
		if _, err := ev.TablePeakRingRotation(0.5e-3, bases[i%2], ring, slotWatts); err != nil {
			t.Fatal(err)
		}
		if _, err := ev.RingBelow(0.5e-3, bases[i%2], ring, slotWatts, 80); err != nil {
			t.Fatal(err)
		}
	})
	if a != 0 {
		t.Errorf("table evaluation allocates %v per run after warmup, want 0", a)
	}
}

// --- hot-loop ring-table baseline (make bench → BENCH_hotloop.json) ---------

// BenchmarkHotloopRingTable is BenchmarkHotloopRingScan's ring through its
// cached response table: the per-ring cost of a HotPotato verdict once the
// (ring, τ) table is built.
func BenchmarkHotloopRingTable(b *testing.B) {
	c := newCalc(b, 8, 8, thermal.DefaultConfig())
	ev := c.NewRingEvaluator()
	base := matrix.Constant(64, 0.5)
	ring := []int{27, 28, 36, 35, 34, 26}
	slotWatts := []float64{9, 0.3, 7, 0.3, 6, 0.3}
	// Build and cache the table first: the timed loop is the cached read.
	if _, err := ev.TablePeakRingRotation(0.5e-3, base, ring, slotWatts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.TablePeakRingRotation(0.5e-3, base, ring, slotWatts); err != nil {
			b.Fatal(err)
		}
	}
}
