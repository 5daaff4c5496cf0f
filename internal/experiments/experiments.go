// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI): the Table I platform, the Fig. 2 motivational thermal
// traces, the Fig. 4(a) homogeneous and Fig. 4(b) heterogeneous comparative
// evaluations of HotPotato vs. PCMig, the run-time overhead measurement, and
// the ablations DESIGN.md calls out. Each experiment is a plain function
// returning typed rows, so tests can assert the paper's qualitative shape
// and the cmd/experiments binary can print paper-style tables.
//
// # Concurrency
//
// Every sweep is embarrassingly parallel: each (benchmark, scheduler, seed,
// load-level) cell builds its own Platform, Scheduler, and task set, so
// cells share no mutable state and fan out across a bounded worker pool
// (see forEach). Options.Workers bounds the pool; the default is
// runtime.GOMAXPROCS(0). Results are collected by cell index, never by
// completion order, so output is bit-identical at any worker count — the
// determinism contract docs/CONCURRENCY.md spells out. The exceptions,
// Overhead, RunDecideOverhead and AnalyticVsBrute, measure host wall-clock
// time and stay deliberately serial: concurrent cells would contend for
// cores and corrupt the very numbers they report.
package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Options scales experiments down for quick runs; the zero value means the
// paper's full scale.
type Options struct {
	// Cores is the chip's edge length (default 8 → 64 cores, Table I).
	GridEdge int
	// WorkScale multiplies every task's instruction count (default 1).
	WorkScale float64
	// TDTM is the DTM threshold (default 70 °C, §VI).
	TDTM float64
	// Workers bounds the number of simulation cells run concurrently
	// (default runtime.GOMAXPROCS(0)). Any value yields bit-identical
	// results: cells are independent and collected by index.
	Workers int
}

// workers resolves the effective pool size.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) withDefaults() Options {
	if o.GridEdge == 0 {
		o.GridEdge = 8
	}
	if o.WorkScale == 0 {
		o.WorkScale = 1
	}
	if o.TDTM == 0 {
		o.TDTM = 70
	}
	return o
}

func newPlatform(edge int) (*sim.Platform, error) {
	return sim.NewPlatform(sim.DefaultPlatformConfig(edge, edge))
}

// runWorkload executes one scheduler over one set of specs on a fresh
// platform. Safe to call concurrently: every invocation builds its own
// Platform, Scheduler, and task instances and reads specs without mutating
// them (the WorkScale adjustment happens on a private copy).
func runWorkload(opts Options, mkSched func(*sim.Platform) sim.Scheduler, specs []workload.Spec, cfg sim.Config) (*sim.Result, error) {
	plat, err := newPlatform(opts.GridEdge)
	if err != nil {
		return nil, err
	}
	scaled := make([]workload.Spec, len(specs))
	copy(scaled, specs)
	for i := range scaled {
		scaled[i].WorkScale *= opts.WorkScale
	}
	tasks, err := workload.Instantiate(scaled)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(plat, cfg, mkSched(plat), tasks)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// TableIRow is one platform parameter.
type TableIRow struct {
	Parameter string
	Value     string
}

// TableI returns the simulated platform parameters in the paper's Table I
// form, read back from the live default configuration (not re-typed
// constants), so drift between code and documentation is impossible.
func TableI() ([]TableIRow, error) {
	cfg := sim.DefaultPlatformConfig(8, 8)
	plat, err := sim.NewPlatform(cfg)
	if err != nil {
		return nil, err
	}
	cc := plat.Caches.Config()
	nc := plat.Net.Config()
	return []TableIRow{
		{"Number of Cores", fmt.Sprintf("%d", plat.NumCores())},
		{"Core Model", fmt.Sprintf("x86, %.1f GHz, out-of-order (interval model)", plat.Power.DVFS().FMax/1e9)},
		{"L1 I/D cache", fmt.Sprintf("%d/%d KB, %d/%d-way, %dB-block", cc.L1IKB, cc.L1DKB, cc.L1Ways, cc.L1Ways, cc.BlockBytes)},
		{"LLC", fmt.Sprintf("%d KB per core, %d-way, %dB-block", cc.LLCPerCoreKB, cc.LLCWays, cc.BlockBytes)},
		{"NoC Latency", fmt.Sprintf("%.1f ns per hop", nc.HopLatency*1e9)},
		{"NoC link width", fmt.Sprintf("%d Bit", nc.LinkWidthBits)},
		{"The area of core", fmt.Sprintf("%.2f mm²", plat.FP.CoreArea()*1e6)},
	}, nil
}
