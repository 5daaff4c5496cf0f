package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestTableIMatchesPaper(t *testing.T) {
	rows, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Number of Cores":  "64",
		"L1 I/D cache":     "16/16 KB, 8/8-way, 64B-block",
		"LLC":              "128 KB per core, 16-way, 64B-block",
		"NoC Latency":      "1.5 ns per hop",
		"NoC link width":   "256 Bit",
		"The area of core": "0.81 mm²",
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r.Parameter] = r.Value
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %q, want %q", k, got[k], v)
		}
	}
	if !strings.Contains(got["Core Model"], "4.0 GHz") {
		t.Errorf("core model %q missing 4.0 GHz", got["Core Model"])
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2(0)
	if err != nil {
		t.Fatal(err)
	}
	// (a) unmanaged breaches the threshold.
	if !res.None.Breaches {
		t.Errorf("unmanaged run peaked at %.1f °C, expected a breach of 70", res.None.PeakTemp)
	}
	// (b) and (c) stay thermally safe (small DTM-hysteresis excursions allowed).
	if res.TSP.PeakTemp > 70.5 {
		t.Errorf("TSP peak %.1f °C", res.TSP.PeakTemp)
	}
	if res.Rotation.PeakTemp > 70.5 {
		t.Errorf("rotation peak %.1f °C", res.Rotation.PeakTemp)
	}
	// Response-time ordering of the paper: none < rotation < TSP.
	if !(res.None.Response < res.Rotation.Response) {
		t.Errorf("rotation (%.1f ms) not slower than unmanaged (%.1f ms)",
			res.Rotation.Response*1e3, res.None.Response*1e3)
	}
	if !(res.Rotation.Response < res.TSP.Response) {
		t.Errorf("rotation (%.1f ms) not faster than TSP (%.1f ms)",
			res.Rotation.Response*1e3, res.TSP.Response*1e3)
	}
	// Rotation migrates; the others never do.
	if res.Rotation.Migrations == 0 {
		t.Error("rotation recorded no migrations")
	}
	if res.None.Migrations != 0 || res.TSP.Migrations != 0 {
		t.Error("static policies migrated")
	}
}

func TestFig2TraceRecording(t *testing.T) {
	res, err := Fig2(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.None.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	prev := 0.0
	for _, s := range res.None.Trace {
		if s.Time <= prev {
			t.Fatal("trace times not monotone")
		}
		prev = s.Time
	}
}

func TestFig4aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 64-core sweep in -short mode")
	}
	rows, err := Fig4a(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 benchmarks", len(rows))
	}
	var cannealSpeedup, minSpeedup float64 = -1, 1e9
	for _, r := range rows {
		// HotPotato must win (or tie within noise) on every benchmark.
		if r.SpeedupPercent < -1 {
			t.Errorf("%s: HotPotato slower than PCMig by %.2f%%", r.Benchmark, -r.SpeedupPercent)
		}
		if r.Benchmark == "canneal" {
			cannealSpeedup = r.SpeedupPercent
		}
		if r.SpeedupPercent < minSpeedup {
			minSpeedup = r.SpeedupPercent
		}
		// Both schedulers essentially respect the threshold.
		if r.HotPotatoPeak > 72 || r.PCMigPeak > 72 {
			t.Errorf("%s: peaks %.1f / %.1f °C", r.Benchmark, r.HotPotatoPeak, r.PCMigPeak)
		}
	}
	// canneal produces very little heat → the smallest gain (paper: 0.73%).
	if cannealSpeedup > 3 {
		t.Errorf("canneal speedup %.2f%%, expected the near-zero paper shape", cannealSpeedup)
	}
	avg := Fig4aAverageSpeedup(rows)
	// Paper: 10.72% average. Accept the same decade: 5–25%.
	if avg < 5 || avg > 25 {
		t.Errorf("average speedup %.2f%%, want the paper's ≈10%% decade (5–25)", avg)
	}
}

func TestFig4bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 64-core sweep in -short mode")
	}
	rows, err := Fig4b(Options{}, DefaultFig4bRates(), 20, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	best, bestIdx := -1e9, -1
	for i, r := range rows {
		if r.SpeedupPercent < -1 {
			t.Errorf("rate %.0f: HotPotato slower by %.2f%%", r.ArrivalRate, -r.SpeedupPercent)
		}
		if r.SpeedupPercent > best {
			best, bestIdx = r.SpeedupPercent, i
		}
	}
	// The paper's hump: the gain peaks at a medium load, not at either end.
	if bestIdx == 0 || bestIdx == len(rows)-1 {
		t.Errorf("speedup maximal at load extreme (index %d); paper shows a medium-load peak", bestIdx)
	}
	if best < 5 || best > 25 {
		t.Errorf("peak speedup %.2f%%, want the paper's ≈12%% decade", best)
	}
}

func TestOverheadWithinEpoch(t *testing.T) {
	res, err := Overhead()
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 23.76 µs per scheduling computation (4.75% of a
	// 0.5 ms epoch). Our fast-path decision must also fit comfortably within
	// an epoch on commodity hardware.
	if res.DecidePerCall.Seconds() > 0.25e-3 {
		t.Errorf("per-epoch decision %v exceeds half an epoch", res.DecidePerCall)
	}
	if res.Alg1PerCall <= 0 || res.Alg1TablePerCall <= 0 || res.PlacementPerThread <= 0 {
		t.Error("degenerate timings")
	}
	if s := res.String(); !strings.Contains(s, "Algorithm 1") {
		t.Errorf("String() = %q", s)
	}
}

// The whole-run mean covers every Decide call of the eight full-load runs;
// the simulations are deterministic, so the call count is fixed.
func TestRunDecideOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("eight full 64-thread simulations")
	}
	res, err := RunDecideOverhead()
	if err != nil {
		t.Fatal(err)
	}
	if res.RunCalls != 3313 {
		t.Errorf("%d Decide calls over the 8 full-load runs, want 3313", res.RunCalls)
	}
	if res.RunDecidePerCall <= 0 {
		t.Errorf("whole-run mean Decide %v", res.RunDecidePerCall)
	}
	if s := res.String(); !strings.Contains(s, "3313 calls") {
		t.Errorf("String() = %q", s)
	}
}

func TestTauSweepShape(t *testing.T) {
	rows, err := TauSweep(DefaultTaus())
	if err != nil {
		t.Fatal(err)
	}
	// Peak temperature grows with τ (slower rotation averages worse)...
	for i := 1; i < len(rows); i++ {
		if rows[i].PeakTemp < rows[i-1].PeakTemp-0.2 {
			t.Errorf("peak not increasing with τ: %.2f at %.3f ms vs %.2f at %.3f ms",
				rows[i].PeakTemp, rows[i].Tau*1e3, rows[i-1].PeakTemp, rows[i-1].Tau*1e3)
		}
	}
	// ...while migration count shrinks.
	if rows[0].Migrations <= rows[len(rows)-1].Migrations {
		t.Error("migration count not decreasing with τ")
	}
}

func TestMigrationCostSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core sweep in -short mode")
	}
	rows, err := MigrationCostSweep([]float64{1, 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].SpeedupPercent >= rows[0].SpeedupPercent {
		t.Errorf("HotPotato's edge did not shrink with 8× migration cost: %.2f%% → %.2f%%",
			rows[0].SpeedupPercent, rows[1].SpeedupPercent)
	}
}

func TestAnalyticVsBruteAgreesAndWins(t *testing.T) {
	rows, err := AnalyticVsBrute([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if diff := r.AnalyticPeak - r.BrutePeak; diff > 0.1 || diff < -0.1 {
			t.Errorf("δ=%d: analytic %.3f vs brute %.3f", r.Delta, r.AnalyticPeak, r.BrutePeak)
		}
		if r.SpeedupFactor < 10 {
			t.Errorf("δ=%d: analytic only %.0f× faster", r.Delta, r.SpeedupFactor)
		}
	}
}

func TestReportWriters(t *testing.T) {
	var buf bytes.Buffer
	rows, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	WriteTableI(&buf, rows)
	if !strings.Contains(buf.String(), "Number of Cores") {
		t.Error("TableI report incomplete")
	}

	buf.Reset()
	WriteFig4a(&buf, []Fig4aRow{{Benchmark: "x264", HotPotatoMakespan: 0.1, PCMigMakespan: 0.12, NormalizedMakespan: 0.83, SpeedupPercent: 17}})
	if !strings.Contains(buf.String(), "x264") || !strings.Contains(buf.String(), "average speedup") {
		t.Error("Fig4a report incomplete")
	}

	buf.Reset()
	WriteFig4b(&buf, []Fig4bRow{{ArrivalRate: 100, HotPotatoResponse: 0.07, PCMigResponse: 0.08, SpeedupPercent: 12}})
	if !strings.Contains(buf.String(), "100/s") {
		t.Error("Fig4b report incomplete")
	}

	buf.Reset()
	WriteTauSweep(&buf, []TauSweepRow{{Tau: 0.5e-3, Response: 0.06, PeakTemp: 65, Migrations: 100}})
	if !strings.Contains(buf.String(), "0.500 ms") {
		t.Error("TauSweep report incomplete")
	}
}

func TestHybridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core sweep in -short mode")
	}
	rows, err := Hybrid(Options{}, []string{"blackscholes"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The hybrid must stay competitive with pure HotPotato and clearly beat
	// the DVFS-only baseline, while throttling no more than pure rotation.
	if r.Hybrid > r.HotPotato*1.15 {
		t.Errorf("hybrid %.1f ms much slower than pure %.1f ms", r.Hybrid*1e3, r.HotPotato*1e3)
	}
	if r.Hybrid >= r.PCMig {
		t.Errorf("hybrid %.1f ms not faster than PCMig %.1f ms", r.Hybrid*1e3, r.PCMig*1e3)
	}
	if r.HybridDTM > r.HotPotatoDTM+1e-3 {
		t.Errorf("hybrid DTM %.2f ms worse than pure %.2f ms", r.HybridDTM*1e3, r.HotPotatoDTM*1e3)
	}
	var buf bytes.Buffer
	WriteHybrid(&buf, rows)
	if !strings.Contains(buf.String(), "blackscholes") {
		t.Error("hybrid report incomplete")
	}
}

func TestFig4bMultiSeedAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core multi-seed sweep in -short mode")
	}
	rows, err := Fig4bMultiSeed(Options{}, []float64{100}, 12, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Seeds != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].MeanSpeedup < 0 {
		t.Errorf("mean speedup %.2f%% negative across seeds", rows[0].MeanSpeedup)
	}
	if rows[0].SpeedupCI95 < 0 {
		t.Error("negative CI")
	}
	var buf bytes.Buffer
	WriteFig4bMultiSeed(&buf, rows)
	if !strings.Contains(buf.String(), "±") {
		t.Error("multi-seed report incomplete")
	}
	if _, err := Fig4bMultiSeed(Options{}, []float64{100}, 5, nil); err == nil {
		t.Error("empty seed list accepted")
	}
}

func TestThreeDShape(t *testing.T) {
	res, err := ThreeD()
	if err != nil {
		t.Fatal(err)
	}
	if res.BuriedHotter <= 0 {
		t.Errorf("buried layer not hotter (gap %.2f K)", res.BuriedHotter)
	}
	peaks := map[string]float64{}
	for _, r := range res.Rows {
		peaks[r.Policy] = r.Peak
	}
	pinned := peaks["pinned buried"]
	for name, p := range peaks {
		if name != "pinned buried" && p >= pinned {
			t.Errorf("%s peak %.2f not below pinned %.2f", name, p, pinned)
		}
	}
	// More cores in the rotation → lower peak.
	if !(peaks["both layers' rings"] < peaks["horizontal ring (buried layer)"]) {
		t.Error("8-core 3D rotation not cooler than 4-core horizontal rotation")
	}
	var buf bytes.Buffer
	WriteThreeD(&buf, res)
	if !strings.Contains(buf.String(), "vertical pair") {
		t.Error("3D report incomplete")
	}
}

func TestHeterogeneityShape(t *testing.T) {
	rows, err := Heterogeneity()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]HeterogeneityRow{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		if r.BestIPS < r.WorstIPS {
			t.Errorf("%s: centre core slower than corner", r.Benchmark)
		}
	}
	// canneal: most placement-sensitive, least DVFS-sensitive; swaptions the
	// reverse ([19]'s characterization).
	if byName["canneal"].PlacementGainPercent <= byName["swaptions"].PlacementGainPercent {
		t.Error("canneal not more placement-sensitive than swaptions")
	}
	if byName["canneal"].DVFSSlowdownPercent >= byName["swaptions"].DVFSSlowdownPercent {
		t.Error("canneal not less DVFS-sensitive than swaptions")
	}
	var buf bytes.Buffer
	WriteHeterogeneity(&buf, rows)
	if !strings.Contains(buf.String(), "canneal") {
		t.Error("heterogeneity report incomplete")
	}
}

func TestNoiseSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core sweep in -short mode")
	}
	rows, err := NoiseSweep([]float64{0, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clean, noisy := rows[0], rows[1]
	if noisy.Makespan > clean.Makespan*1.2 {
		t.Errorf("2 K sensor noise cost %.0f%% makespan",
			100*(noisy.Makespan/clean.Makespan-1))
	}
	if noisy.PeakTemp > 73 {
		t.Errorf("noisy peak %.2f °C", noisy.PeakTemp)
	}
	var buf bytes.Buffer
	WriteNoiseSweep(&buf, rows)
	if !strings.Contains(buf.String(), "noise") {
		t.Error("noise report incomplete")
	}
}

func TestHeadroomSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core sweep in -short mode")
	}
	rows, err := HeadroomSweep([]float64{0.5, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tight, wide := rows[0], rows[1]
	// A wide margin must not throttle more than a tight one, and costs some
	// performance.
	if wide.DTMEvents > tight.DTMEvents {
		t.Errorf("Δ=4: %d DTM events vs %d at Δ=0.5", wide.DTMEvents, tight.DTMEvents)
	}
	if wide.Makespan < tight.Makespan*0.95 {
		t.Errorf("wide margin implausibly faster: %.1f vs %.1f ms",
			wide.Makespan*1e3, tight.Makespan*1e3)
	}
	var buf bytes.Buffer
	WriteHeadroomSweep(&buf, rows)
	if !strings.Contains(buf.String(), "DTM events") {
		t.Error("headroom report incomplete")
	}
}

func TestConcurrentPairDeterministic(t *testing.T) {
	// Fig4b fans its scheduler cells out on the worker pool; results must be
	// identical across repeated invocations (no shared state between cells).
	opts := Options{GridEdge: 4, WorkScale: 0.3}
	run := func() []Fig4bRow {
		rows, err := Fig4b(opts, []float64{100}, 6, 9)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a, b := run(), run()
	if a[0].HotPotatoResponse != b[0].HotPotatoResponse ||
		a[0].PCMigResponse != b[0].PCMigResponse {
		t.Fatalf("concurrent pair runs diverge: %+v vs %+v", a[0], b[0])
	}
}

func TestForEach(t *testing.T) {
	// Every index runs exactly once and lands in its own slot, at any
	// worker count (including more workers than cells).
	for _, workers := range []int{0, 1, 2, 7, 64} {
		const n = 23
		got := make([]int, n)
		if err := forEach(workers, n, func(i int) error {
			got[i] = i + 1
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
	// n = 0 is a no-op.
	if err := forEach(4, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachReportsLowestIndexError(t *testing.T) {
	// The reported error must not depend on goroutine interleaving: it is
	// always the failure of the lowest index, and later cells still run.
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := forEach(workers, 10, func(i int) error {
			ran.Add(1)
			if i == 7 || i == 3 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 3 failed" {
			t.Errorf("workers=%d: err = %v, want the lowest-index failure", workers, err)
		}
		if ran.Load() != 10 {
			t.Errorf("workers=%d: %d cells ran, want all 10", workers, ran.Load())
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// The acceptance property of the parallel harness: workers=1 and
	// workers=8 produce bit-identical Fig4b aggregate rows for the same
	// seeds. Any divergence means a cell leaked state into another.
	rates := []float64{100, 200}
	seeds := []int64{1, 2}
	run := func(workers int) []Fig4bAggRow {
		opts := Options{GridEdge: 4, WorkScale: 0.3, Workers: workers}
		rows, err := Fig4bMultiSeed(opts, rates, 6, seeds)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial, parallel := run(1), run(8)
	if len(serial) != len(rates) || len(parallel) != len(rates) {
		t.Fatalf("row counts %d / %d, want %d", len(serial), len(parallel), len(rates))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("rate %.0f: workers=1 row %+v != workers=8 row %+v",
				rates[i], serial[i], parallel[i])
		}
	}
}

func TestBaselinesLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core ladder in -short mode")
	}
	rows, err := Baselines(Options{}, "x264")
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]BaselineRow{}
	for _, r := range rows {
		by[r.Policy] = r
		if r.PeakTemp > 73 {
			t.Errorf("%s peak %.2f °C", r.Policy, r.PeakTemp)
		}
	}
	// The model-driven rotation policies beat both DVFS baselines.
	if by["hotpotato"].Makespan >= by["pcmig"].Makespan {
		t.Error("hotpotato not faster than pcmig")
	}
	if by["hotpotato"].Makespan >= by["reactive (ondemand-style)"].Makespan {
		t.Error("hotpotato not faster than the reactive governor")
	}
	var buf bytes.Buffer
	WriteBaselines(&buf, "x264", rows)
	if !strings.Contains(buf.String(), "hotpotato-dvfs") {
		t.Error("baseline report incomplete")
	}
}

func TestContentionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core contention sweep in -short mode")
	}
	rows, err := Contention(Options{}, []string{"streamcluster"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.ContentionCostPct <= 0 {
		t.Errorf("contention made the run faster (%.1f%%)", r.ContentionCostPct)
	}
	// The headline conclusion must survive the bandwidth model: HotPotato
	// does not lose to PCMig with contention on.
	if r.SpeedupOnPercent < -2 {
		t.Errorf("HotPotato loses %.2f%% to PCMig under contention", -r.SpeedupOnPercent)
	}
	var buf bytes.Buffer
	WriteContention(&buf, rows)
	if !strings.Contains(buf.String(), "streamcluster") {
		t.Error("contention report incomplete")
	}
}

func TestCSVEmitters(t *testing.T) {
	res, err := Fig2(50)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFig2TracesCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time_ms,unmanaged_C,tsp_C,rotation_C") {
		t.Errorf("fig2 CSV header: %q", strings.SplitN(out, "\n", 2)[0])
	}
	if strings.Count(out, "\n") < 10 {
		t.Error("fig2 CSV has too few rows")
	}
	// Traceless result errors.
	empty, err := Fig2(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFig2TracesCSV(&buf, empty); err == nil {
		t.Error("traceless Fig2 CSV accepted")
	}

	buf.Reset()
	if err := WriteFig4aCSV(&buf, []Fig4aRow{{Benchmark: "x264", HotPotatoMakespan: 0.1, PCMigMakespan: 0.12}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x264,100.000,120.000") {
		t.Errorf("fig4a CSV: %q", buf.String())
	}

	buf.Reset()
	if err := WriteFig4bCSV(&buf, []Fig4bRow{{ArrivalRate: 100, HotPotatoResponse: 0.07, PCMigResponse: 0.08, SpeedupPercent: 12.5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "100.0,70.000,80.000,12.50") {
		t.Errorf("fig4b CSV: %q", buf.String())
	}

	buf.Reset()
	if err := WriteTauSweepCSV(&buf, []TauSweepRow{{Tau: 0.5e-3, Response: 0.059, PeakTemp: 61.2, Migrations: 234}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0.500,59.000,61.200,234") {
		t.Errorf("tau CSV: %q", buf.String())
	}
}
