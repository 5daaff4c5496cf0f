package main

// Per-layer metrics of the traced run. Each is measured from outside,
// around calls into the layer's public functions (layer = module):
//
//	sched.*     internal/sched      a Scheduler decorator timing every Decide
//	rotation.*  internal/rotation   a counting HotPotato pre-filter; its
//	                                captured inputs replayed through
//	                                RingEvaluator.PeakRingRotation
//	thermal.*   internal/matrix,    NewPlatformFromConfig per distinct
//	            internal/thermal    platform; Stepper.StepTo on each platform
//	sim.*       internal/sim        Simulation.RunContext; self = run − Σ Decide
//	hotpotato.* facade              SpecHash, SweepSpec.Expand
//	twin.*      internal/twin       TwinPredict
//	service.*   internal/service    served latency − library time; /healthz
//	fabric.*    internal/fabric     stream wall − library time; sweep status
//	loadgen.*, trace.*              the benchmark itself
//
// Time metrics are means per traced cell unless named otherwise; counts are
// totals over the traced sample, whose size is the metric's sample count.
// Shares divide by the sample's host time: its platform builds plus its
// traced runs.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	hotpotato "repro"
	"repro/internal/rotation"
)

// sample is one spec the traced run repeats through the library, with the
// Result the program served for it.
type sample struct {
	spec   hotpotato.RunSpec
	served json.RawMessage
}

// tracedSample returns the cells the traced run repeats: every cell of the
// first batch on the sweep workloads, the first cold runs on serve-mixed;
// and the same cells as one sweep document, for the fabric.
func (b *bench) tracedSample(sweeps *sweepPhase, colds []*served) ([]sample, []byte, error) {
	var samp []sample
	if sweeps != nil {
		first := sweeps.first()
		if first == nil {
			return nil, nil, fmt.Errorf("no complete batch to trace")
		}
		for i, c := range first.cells {
			samp = append(samp, sample{spec: c.Spec, served: first.results[i]})
		}
		return samp, first.doc, nil
	}
	for i, s := range colds {
		if s.req.doc != i {
			return nil, nil, fmt.Errorf("cold run %d failed; cannot trace a contiguous sample", i)
		}
		var spec hotpotato.RunSpec
		if err := json.Unmarshal(s.doc, &spec); err != nil {
			return nil, nil, err
		}
		samp = append(samp, sample{spec: spec.WithDefaults(), served: s.resp.result})
	}
	if len(samp) == 0 {
		return nil, nil, fmt.Errorf("empty traced sample")
	}
	return samp, b.gen.ColdSweep(len(samp)), nil
}

// capture is a captured ring evaluation and the platform it ran on.
type capture struct {
	plat *hotpotato.Platform
	in   ringInput
}

// libProfile is what the library passes over the traced sample measured.
type libProfile struct {
	n         int
	plats     *platforms
	cellPlat  []*hotpotato.Platform
	plainWall time.Duration // Σ untraced ExecuteSpecOnPlatform
	libMean   time.Duration // plainWall / n
	// The traced pass.
	tracedWall        time.Duration
	runSum, decideSum time.Duration
	decide            Samples // µs per Decide
	evals             int
	captures          []capture
	steps             float64 // Σ simulated time / slice
	stepComputed      float64 // ms: Σ steps × µs per step of the cell's platform
	stepPlatforms     int
	self              map[string]float64 // ms of self time per span name
}

// libraryPasses builds the sample's platforms, then runs the sample through
// the library untraced and traced, checking both against the served
// Results.
func (b *bench) libraryPasses(ctx context.Context, samp []sample) (*libProfile, error) {
	tr := b.tr
	lp := &libProfile{n: len(samp), plats: newPlatforms(), cellPlat: make([]*hotpotato.Platform, len(samp))}
	for i, s := range samp {
		p, err := lp.plats.get(s.spec.WithDefaults().Platform, tr)
		if err != nil {
			return nil, err
		}
		lp.cellPlat[i] = p
	}
	switch builds := lp.plats.builds.N(); {
	case b.w.name == "sweep-platforms" && builds != lp.n:
		b.check(fmt.Errorf("%d platform builds for %d cells; every cell should build its own", builds, lp.n))
	case b.w.warmPlatform && builds != 1:
		b.check(fmt.Errorf("%d platform builds; all cells should share one platform", builds))
	}

	for i, s := range samp {
		res, wall, err := libRun(ctx, lp.cellPlat[i], s.spec)
		if err != nil {
			return nil, err
		}
		lp.plainWall += wall
		b.check(compare(fmt.Sprintf("sample %d (library)", i), s.served, res))
	}
	lp.libMean = lp.plainWall / time.Duration(lp.n)

	stepUS := map[*hotpotato.Platform]float64{}
	for i, s := range samp {
		root := tr.start("cell", 0)
		rings := &ringCounter{}
		t0 := time.Now()
		cell, err := tracedRun(ctx, lp.cellPlat[i], s.spec, tr, root, &lp.decide, rings)
		lp.tracedWall += time.Since(t0)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		b.check(compare(fmt.Sprintf("sample %d (traced)", i), s.served, cell.result))
		if cell.decide > cell.run {
			b.check(fmt.Errorf("sample %d: Σ Decide %v exceeds the run %v", i, cell.decide, cell.run))
		}
		lp.runSum += cell.run
		lp.decideSum += cell.decide
		lp.evals += rings.evals
		for _, in := range rings.captured {
			lp.captures = append(lp.captures, capture{cell.plat, in})
		}
		var res hotpotato.Result
		if err := json.Unmarshal(cell.result, &res); err != nil {
			return nil, err
		}
		steps := math.Round(res.SimulatedTime / cell.spec.Sim.TimeSlice)
		if _, ok := stepUS[cell.plat]; !ok {
			if stepUS[cell.plat], err = timeStep(cell.plat, cell.spec.Sim.TimeSlice, tr); err != nil {
				return nil, err
			}
		}
		lp.steps += steps
		lp.stepComputed += steps * stepUS[cell.plat] / 1000
	}
	lp.stepPlatforms = len(stepUS)
	lp.self = tr.selfTimes()
	return lp, nil
}

// ringEvalTimes replays the captured ring evaluations, timing each. Where
// the workload's scheduler evaluates no rings (PCMig), the outermost ring
// of each sample platform at uniform slot power stands in, so the cost of
// one evaluation is still reported.
func (b *bench) ringEvalTimes(lp *libProfile) (*Samples, error) {
	captures := lp.captures
	if len(captures) == 0 {
		seen := map[*hotpotato.Platform]bool{}
		for _, p := range lp.cellPlat {
			if seen[p] {
				continue
			}
			seen[p] = true
			rings := p.FP.Rings()
			ring := rings[len(rings)-1]
			base := make([]float64, p.FP.NumCores())
			for j := range base {
				base[j] = p.Power.IdleWatts
			}
			slots := make([]float64, len(ring.Cores))
			for j := range slots {
				slots[j] = 3
			}
			captures = append(captures, capture{p, ringInput{tau: 0.5e-3, base: base, cores: ring.Cores, slotWatts: slots}})
		}
	}
	var times Samples
	evaluators := map[*hotpotato.Platform]*rotation.RingEvaluator{}
	for _, c := range captures {
		ev, ok := evaluators[c.plat]
		if !ok {
			ev = hotpotato.NewPeakCalculator(c.plat).NewRingEvaluator()
			evaluators[c.plat] = ev
		}
		// The first evaluation of a ring size sizes the scratch; time the second.
		if _, err := ev.PeakRingRotation(c.in.tau, c.in.base, c.in.cores, c.in.slotWatts); err != nil {
			return nil, err
		}
		sp := b.tr.start("rotation.ring_eval", 0)
		t0 := time.Now()
		_, err := ev.PeakRingRotation(c.in.tau, c.in.base, c.in.cores, c.in.slotWatts)
		times.Add(us(time.Since(t0)))
		b.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	return &times, nil
}

// facadeTimes times SpecHash over the run's specs and SweepSpec.Expand over
// its sweep documents (on serve-mixed, the sample's sweep document).
func (b *bench) facadeTimes(sweeps *sweepPhase, colds []*served, sampleDoc []byte) (hashUS, expandMS *Samples, err error) {
	var specs []hotpotato.RunSpec
	sweepDocs := [][]byte{sampleDoc}
	if sweeps != nil {
		sweepDocs = nil
		for _, bt := range sweeps.batches {
			sweepDocs = append(sweepDocs, bt.doc)
			for _, c := range bt.cells {
				specs = append(specs, c.Spec)
			}
		}
	}
	for _, s := range colds {
		var spec hotpotato.RunSpec
		if err := json.Unmarshal(s.doc, &spec); err != nil {
			return nil, nil, err
		}
		specs = append(specs, spec)
	}
	hashUS, expandMS = &Samples{}, &Samples{}
	for _, s := range specs[:min(len(specs), 2000)] {
		sp := b.tr.start("hotpotato.spec_hash", 0)
		t0 := time.Now()
		_, err := hotpotato.SpecHash(s)
		hashUS.Add(us(time.Since(t0)))
		b.tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
	}
	for _, doc := range sweepDocs[:min(len(sweepDocs), 200)] {
		sp := b.tr.start("hotpotato.sweep_expand", 0)
		t0 := time.Now()
		var sw hotpotato.SweepSpec
		err := json.Unmarshal(doc, &sw)
		if err == nil {
			_, err = sw.Expand()
		}
		expandMS.Add(ms(time.Since(t0)))
		b.tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
	}
	return hashUS, expandMS, nil
}

// fabricProfile is what the fabric metrics are computed from.
type fabricProfile struct {
	wall     time.Duration
	cells    int
	requeues int
	leases   float64
	pickup   Samples // ms
}

// fabricLayer measures the fabric: from the measured phase on
// fabric-small; elsewhere by sending the traced sample once through a
// fresh dispatcher and two workers, checking its stream against the
// served Results.
func (b *bench) fabricLayer(ctx context.Context, st *stack, sweeps *sweepPhase, samp []sample, sampleDoc []byte, leases0 float64) (*fabricProfile, error) {
	fp := &fabricProfile{}
	if st.fab != nil {
		fp.wall, fp.cells = sweeps.wall, sweeps.cells
		for _, bt := range sweeps.batches {
			fp.pickup.Add(ms(bt.pickup))
			fp.requeues += bt.requeues
		}
		leases, err := fabricLeases(ctx, b.client, st.fab.URL())
		fp.leases = leases - leases0
		return fp, err
	}
	fs, err := startFabric(b.out)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	l0, err := fabricLeases(ctx, b.client, fs.URL())
	if err != nil {
		return nil, err
	}
	cells, hashes, err := expandDoc(sampleDoc)
	if err != nil {
		return nil, err
	}
	bt := &batchResult{doc: sampleDoc, cells: cells, hashes: hashes}
	sp := b.tr.start("client.fabric_batch", 0)
	err = streamBatch(ctx, b.client, fs.URL(), bt)
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	b.attempted += len(cells)
	b.failed += bt.failed
	b.keep(bt.errs...)
	for i, r := range bt.results {
		if r != nil {
			b.check(compare(fmt.Sprintf("fabric sample %d", i), samp[i].served, r))
		}
	}
	fp.wall, fp.cells = bt.wall, len(cells)
	fp.pickup.Add(ms(bt.pickup))
	if fp.requeues, err = sweepRequeues(ctx, b.client, fs.URL(), bt.sweepID); err != nil {
		return nil, err
	}
	leases, err := fabricLeases(ctx, b.client, fs.URL())
	fp.leases = leases - l0
	return fp, err
}

func (b *bench) layers(ctx context.Context, rep *Report, st *stack, lib *library, sweeps *sweepPhase, ol *openLoop, colds []*served, coldLib []time.Duration, leases0 float64) error {
	samp, sampleDoc, err := b.tracedSample(sweeps, colds)
	if err != nil {
		return err
	}
	lp, err := b.libraryPasses(ctx, samp)
	if err != nil {
		return err
	}
	ringUS, err := b.ringEvalTimes(lp)
	if err != nil {
		return err
	}
	hashUS, expandMS, err := b.facadeTimes(sweeps, colds, sampleDoc)
	if err != nil {
		return err
	}
	// Serving layer: served cold-run latency (from send) minus library time.
	var svcOverhead Samples
	for i, s := range colds {
		svcOverhead.Add(ms(s.service - coldLib[i]))
	}
	h, err := st.front.health(ctx, b.client)
	if err != nil {
		return err
	}
	fp, err := b.fabricLayer(ctx, st, sweeps, samp, sampleDoc, leases0)
	if err != nil {
		return err
	}
	// Two workers of one slot each: slot time per cell not spent simulating.
	fabOverhead := (2*ms(fp.wall) - float64(fp.cells)*ms(lp.libMean)) / float64(fp.cells)

	n, nf := lp.n, float64(lp.n)
	host := lp.plats.builds.Sum() + ms(lp.runSum)
	rep.Set("sched.decide_us_mean", lp.decide.Mean(), "us", lp.decide.N())
	rep.SetQuantile("sched.decide_us_p90", &lp.decide, 0.9, "us")
	rep.Set("sched.decide_calls", float64(lp.decide.N()), "count", n)
	rep.Set("sched.decide_share", ms(lp.decideSum)/host, "ratio", n)
	rep.Set("rotation.ring_evals_per_decide", float64(lp.evals)/float64(max(lp.decide.N(), 1)), "ratio", lp.decide.N())
	rep.SetQuantile("rotation.ring_eval_us", ringUS, 0.5, "us")
	rep.Set("thermal.build_ms", lp.plats.builds.Mean(), "ms", lp.plats.builds.N())
	rep.Set("thermal.builds", float64(lp.plats.builds.N()), "count", n)
	rep.Set("thermal.build_share", lp.plats.builds.Sum()/host, "ratio", n)
	rep.Set("thermal.step_us", lp.stepComputed*1000/lp.steps, "us", lp.stepPlatforms)
	rep.Set("thermal.steps", lp.steps, "count", n)
	rep.Set("thermal.step_ms_computed", lp.stepComputed/nf, "ms", n)
	rep.Set("thermal.step_share_computed", lp.stepComputed/host, "ratio", n)
	rep.Set("sim.run_ms", ms(lp.runSum)/nf, "ms", n)
	rep.Set("sim.self_ms", lp.self["sim.run"]/nf, "ms", n)
	rep.SetQuantile("hotpotato.spec_hash_us", hashUS, 0.5, "us")
	rep.SetQuantile("hotpotato.sweep_expand_ms", expandMS, 0.5, "ms")
	rep.SetQuantile("twin.predict_us", &lib.predict, 0.5, "us")
	rep.SetQuantile("service.overhead_ms", &svcOverhead, 0.5, "ms")
	rep.Set("service.result_cache_hit_ratio", ratio(h["result_cache_hits"], h["result_cache_misses"]), "ratio", int(h["result_cache_hits"]+h["result_cache_misses"]))
	rep.Set("service.platform_cache_hit_ratio", ratio(h["platform_hits"], h["platform_misses"]), "ratio", int(h["platform_hits"]+h["platform_misses"]))
	rep.Set("fabric.overhead_ms_per_cell", fabOverhead, "ms", fp.cells)
	rep.SetQuantile("fabric.pickup_ms", &fp.pickup, 0.5, "ms")
	rep.Set("fabric.requeues", float64(fp.requeues), "count", fp.cells)
	rep.Set("fabric.leases", fp.leases, "count", fp.cells)
	rep.SetQuantile("loadgen.late_ms_p90", &ol.late, 0.9, "ms")
	rep.Set("trace.overhead_ratio", float64(lp.tracedWall)/float64(lp.plainWall), "ratio", n)
	return nil
}

func ratio(hits, misses float64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// timeStep returns the µs per Stepper.StepTo on p's thermal model.
func timeStep(p *hotpotato.Platform, dt float64, tr *tracer) (float64, error) {
	st, err := p.Thermal.NewStepper(dt)
	if err != nil {
		return 0, err
	}
	t := make([]float64, p.Thermal.N)
	watts := make([]float64, p.FP.NumCores())
	for i := range watts {
		watts[i] = 2
	}
	const reps = 2000
	st.StepTo(t, t, watts)
	sp := tr.start("thermal.step", 0)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		st.StepTo(t, t, watts)
	}
	d := time.Since(t0)
	tr.end(sp)
	return us(d) / reps, nil
}

// sweepRequeues reads a fabric sweep's requeue tally from its status.
func sweepRequeues(ctx context.Context, client *http.Client, base, id string) (int, error) {
	var st struct {
		Requeues int `json:"requeues"`
	}
	if err := getJSON(ctx, client, base+"/v1/sweeps/"+id, &st); err != nil {
		return 0, err
	}
	return st.Requeues, nil
}

// fabricLeases reads fabric_leases_total from a dispatcher's /metrics.
func fabricLeases(ctx context.Context, client *http.Client, base string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "fabric_leases_total "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s/metrics has no fabric_leases_total", base)
}
