package main

// The library path: the same specs the program served, executed in-process
// through the hotpotato facade, to check the served outputs bit for bit and,
// in the traced run, to time each layer from outside. The traced variant
// wraps the scheduler in a Decide timer and gives HotPotato an
// always-inconclusive ring estimator that only counts (and samples) the
// Algorithm 1 ring evaluations; inconclusive answers fall back to the exact
// evaluation, so decisions stay unchanged — which the bit-identity check of
// every traced result against the served one confirms.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	hotpotato "repro"
)

// sameResult reports whether two wire Results agree bit for bit apart from
// the host-time field.
func sameResult(a, b json.RawMessage) (bool, error) {
	var ra, rb hotpotato.Result
	if err := json.Unmarshal(a, &ra); err != nil {
		return false, err
	}
	if err := json.Unmarshal(b, &rb); err != nil {
		return false, err
	}
	ra.SchedulerHostTime, rb.SchedulerHostTime = 0, 0
	ja, err := json.Marshal(ra)
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(rb)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ja, jb), nil
}

// samePrediction reports whether a served prediction equals the library's.
func samePrediction(served json.RawMessage, lib hotpotato.TwinPrediction) (bool, error) {
	var got hotpotato.TwinPrediction
	if err := json.Unmarshal(served, &got); err != nil {
		return false, err
	}
	b, err := json.Marshal(lib)
	if err != nil {
		return false, err
	}
	var want hotpotato.TwinPrediction
	if err := json.Unmarshal(b, &want); err != nil {
		return false, err
	}
	return reflect.DeepEqual(got, want), nil
}

// platforms builds each distinct platform once, timing every build.
type platforms struct {
	byCfg  map[hotpotato.PlatformConfig]*hotpotato.Platform
	builds Samples // ms per build
}

func newPlatforms() *platforms {
	return &platforms{byCfg: map[hotpotato.PlatformConfig]*hotpotato.Platform{}}
}

func (p *platforms) get(cfg hotpotato.PlatformConfig, tr *tracer) (*hotpotato.Platform, error) {
	if plat, ok := p.byCfg[cfg]; ok {
		return plat, nil
	}
	sp := tr.start("thermal.build", 0)
	t0 := time.Now()
	plat, err := hotpotato.NewPlatformFromConfig(cfg)
	d := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	p.builds.Add(ms(d))
	p.byCfg[cfg] = plat
	return plat, nil
}

// libRun executes one spec the way the server does (ExecuteSpecOnPlatform)
// and returns its wire Result and wall time.
func libRun(ctx context.Context, plat *hotpotato.Platform, spec hotpotato.RunSpec) (json.RawMessage, time.Duration, error) {
	t0 := time.Now()
	res, err := hotpotato.ExecuteSpecOnPlatform(ctx, plat, spec)
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	b, err := json.Marshal(res)
	return b, d, err
}

// timedScheduler times every Decide of the scheduler it wraps.
type timedScheduler struct {
	inner  hotpotato.Scheduler
	tr     *tracer
	parent int
	decide *Samples // µs per call
	total  time.Duration
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Decide(st *hotpotato.SchedulerState) hotpotato.SchedulerDecision {
	sp := t.tr.start("sched.decide", t.parent)
	t0 := time.Now()
	d := t.inner.Decide(st)
	el := time.Since(t0)
	t.tr.end(sp)
	t.total += el
	t.decide.Add(float64(el) / float64(time.Microsecond))
	return d
}

// ringInput is one captured Algorithm 1 ring evaluation.
type ringInput struct {
	tau       float64
	base      []float64
	cores     []int
	slotWatts []float64
}

// ringCounter is the always-inconclusive HotPotato pre-filter: it counts
// the ring evaluations and keeps every captureEvery-th input, up to
// maxCaptured, for replay.
type ringCounter struct {
	evals    int
	captured []ringInput
}

const (
	captureEvery = 16
	maxCaptured  = 256
)

func (c *ringCounter) EstimateRingPeak(tau float64, base []float64, ringCores []int, slotWatts []float64) (float64, float64, bool) {
	c.evals++
	if c.evals%captureEvery == 0 && len(c.captured) < maxCaptured {
		c.captured = append(c.captured, ringInput{
			tau:       tau,
			base:      append([]float64(nil), base...),
			cores:     append([]int(nil), ringCores...),
			slotWatts: append([]float64(nil), slotWatts...),
		})
	}
	return 0, 0, false
}

// tracedCell is the layer record of one traced library execution.
type tracedCell struct {
	plat   *hotpotato.Platform
	spec   hotpotato.RunSpec
	run    time.Duration // Simulation.RunContext wall
	decide time.Duration // Σ Decide inside it
	calls  int
	result json.RawMessage
}

// tracedRun executes spec with the Decide timer and, for HotPotato, the
// counting pre-filter installed.
func tracedRun(ctx context.Context, plat *hotpotato.Platform, spec hotpotato.RunSpec, tr *tracer, parent int, decide *Samples, rings *ringCounter) (*tracedCell, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	canon, err := spec.Canonicalize()
	if err != nil {
		return nil, err
	}
	taskSpecs, err := taskSpecs(canon.Workload)
	if err != nil {
		return nil, err
	}
	tasks, err := hotpotato.Instantiate(taskSpecs)
	if err != nil {
		return nil, err
	}
	sspec, err := spec.Scheduler.AutoPin(plat, tasks)
	if err != nil {
		return nil, err
	}
	var inner hotpotato.Scheduler
	if sspec.Name == "hotpotato" {
		if sspec.Tau != 0 || sspec.TauMin != 0 || sspec.TauMax != 0 || sspec.Headroom != 0 || sspec.RebalanceEvery != 0 {
			return nil, fmt.Errorf("traced path builds default-option HotPotato only")
		}
		inner = hotpotato.NewHotPotatoScheduler(plat, sspec.TDTM, hotpotato.WithTwinPreFilter(rings))
	} else if inner, err = hotpotato.NewSchedulerFromSpec(plat, sspec); err != nil {
		return nil, err
	}
	sp := tr.start("sim.run", parent)
	ts := &timedScheduler{inner: inner, tr: tr, parent: sp, decide: decide}
	sim, err := hotpotato.NewSimulation(plat, spec.Sim, ts, tasks)
	if err != nil {
		return nil, err
	}
	before := decide.N()
	t0 := time.Now()
	res, err := sim.RunContext(ctx)
	run := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return &tracedCell{plat: plat, spec: spec, run: run, decide: ts.total, calls: decide.N() - before, result: b}, nil
}

// taskSpecs expands a canonical workload into its task mix, as ExecuteSpec
// does.
func taskSpecs(w hotpotato.WorkloadSpec) ([]hotpotato.Spec, error) {
	switch w.Kind {
	case hotpotato.WorkloadHomogeneous:
		b, err := hotpotato.BenchmarkByName(w.Bench)
		if err != nil {
			return nil, err
		}
		return hotpotato.HomogeneousFullLoad(b, w.TotalThreads, w.Sizes)
	case hotpotato.WorkloadRandom:
		return hotpotato.RandomMix(w.Count, w.Rate, w.Seed)
	case hotpotato.WorkloadExplicit:
		out := make([]hotpotato.Spec, 0, len(w.Tasks))
		for _, t := range w.Tasks {
			b, err := hotpotato.BenchmarkByName(t.Bench)
			if err != nil {
				return nil, err
			}
			out = append(out, hotpotato.Spec{Bench: b, Threads: t.Threads, Arrival: t.Arrival, WorkScale: t.WorkScale})
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown workload kind %q", w.Kind)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
