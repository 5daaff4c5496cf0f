package main

// The workload generator. Every document the benchmark sends to the program
// is made here from the --seed argument and nothing else, so one seed always
// yields byte-identical documents. Each seeded quantity comes from its own
// stream: warm (replayed) runs, cold runs, predictions and sweep cells never
// share a workload seed, and neither do two benchmark seeds.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	hotpotato "repro"
)

// Seed streams. uniq packs (seed, stream, index) into one int64, so values
// from different seeds or streams are distinct by construction.
const (
	streamHotPotato = iota + 1
	streamPlatforms
	streamFabric
	streamWarm
	streamCold
	streamPredict
	streamSchedule
	streamMixes
)

const (
	seedBits  = 34 // benchmark seeds are in [0, 2^34)
	indexBits = 24 // per-stream indices are in [0, 2^24)
	// MaxSeed is the largest accepted --seed.
	MaxSeed = 1<<seedBits - 1
)

func uniq(seed int64, stream, i int) int64 {
	return seed<<(indexBits+5) | int64(stream)<<indexBits | int64(i)
}

// Gen makes the documents of one benchmark seed.
type Gen struct{ seed int64 }

// NewGen validates the seed range uniq relies on.
func NewGen(seed int64) (*Gen, error) {
	if seed < 0 || seed > MaxSeed {
		return nil, fmt.Errorf("seed %d outside [0, %d]", seed, int64(MaxSeed))
	}
	return &Gen{seed: seed}, nil
}

func (g *Gen) rng(stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(uniq(g.seed, stream, i)))
}

// Minimal wire documents: absent sections keep the paper defaults when the
// program decodes them, exactly as a hand-written request would.
type (
	platformDoc struct {
		Width   int         `json:"width"`
		Height  int         `json:"height"`
		Thermal *thermalDoc `json:"thermal,omitempty"`
	}
	thermalDoc struct {
		Solver              string  `json:"solver,omitempty"`
		GLateralSi          float64 `json:"g_lateral_si,omitempty"`
		GVertical           float64 `json:"g_vertical,omitempty"`
		GSinkAmbientPerCore float64 `json:"g_sink_ambient_per_core,omitempty"`
	}
	simDoc struct {
		DTMEnabled        *bool   `json:"dtm_enabled,omitempty"`
		SensorNoiseStdDev float64 `json:"sensor_noise_std_dev,omitempty"`
		SensorNoiseSeed   int64   `json:"sensor_noise_seed,omitempty"`
	}
	runDoc struct {
		Platform  *platformDoc            `json:"platform,omitempty"`
		Sim       *simDoc                 `json:"sim,omitempty"`
		Scheduler hotpotato.SchedulerSpec `json:"scheduler"`
		Workload  *hotpotato.WorkloadSpec `json:"workload,omitempty"`
	}
	sweepDoc struct {
		Base runDoc  `json:"base"`
		Axes axesDoc `json:"axes"`
	}
	axesDoc struct {
		Platforms []platformDoc            `json:"platforms,omitempty"`
		Workloads []hotpotato.WorkloadSpec `json:"workloads,omitempty"`
		Seeds     []int64                  `json:"seeds,omitempty"`
	}
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the document types above always encode
	}
	return b
}

// Sweep sizes, in cells per /v1/batch document.
const (
	hotPotatoRates   = 4 // random-mix arrival rates per round, two mixes each
	platformsPerGrid = 2 // cells per grid size per round
	fabricCells      = 64
)

// randomRates are the Fig. 4(b)-style arrival rates (tasks/s) of the
// sweep-hotpotato random mixes.
var randomRates = [hotPotatoRates]float64{10, 20, 40, 80}

// HotPotatoBatch is round r of sweep-hotpotato: sixteen cold 8×8 HotPotato
// cells on the default platform — one homogeneous full-load bench per PARSEC
// application plus two 20-task random mixes at each of four rates. Sensor
// noise seeded per round and seed makes every cell distinct across rounds
// and seeds.
//
// The random mixes come from one pool that every seed shares: mix j of
// round r is the same task set whatever the seed. A run then simulates
// about the same work whatever its seed, so its rate follows the program
// and the host rather than which mixes the seed drew; with a mix pool per
// seed the simulated time of one batch ranged over ±13%.
func (g *Gen) HotPotatoBatch(r int) []byte {
	var wls []hotpotato.WorkloadSpec
	for _, b := range hotpotato.PARSEC() {
		wls = append(wls, hotpotato.WorkloadSpec{Kind: hotpotato.WorkloadHomogeneous, Bench: b.Name})
	}
	for k, rate := range randomRates {
		for j := 0; j < 2; j++ {
			wls = append(wls, hotpotato.WorkloadSpec{
				Kind: hotpotato.WorkloadRandom, Count: 20, Rate: rate,
				Seed: uniq(0, streamMixes, r*2*hotPotatoRates+2*k+j),
			})
		}
	}
	// The dearer random mixes go first, so the two slots finish together.
	wls = append(wls[len(hotpotato.PARSEC()):], wls[:len(hotpotato.PARSEC())]...)
	return mustJSON(sweepDoc{
		Base: runDoc{
			Sim:       &simDoc{SensorNoiseStdDev: 0.1, SensorNoiseSeed: uniq(g.seed, streamHotPotato, r)},
			Scheduler: hotpotato.SchedulerSpec{Name: "hotpotato"},
		},
		Axes: axesDoc{Workloads: wls},
	})
}

// PlatformsBatch is round r of sweep-platforms: one PCMig random mix over a
// platforms axis of dense 8×8 to 11×11 grids, platformsPerGrid of each, whose
// silicon, vertical and heat-sink conductances are jittered by ±10% — so
// every cell declares a platform no other cell shares. As on
// sweep-hotpotato, the mix of round r comes from the pool every seed
// shares, and the seed varies the platforms.
func (g *Gen) PlatformsBatch(r int) []byte {
	rng := g.rng(streamPlatforms, r)
	def := hotpotato.DefaultPlatformConfig(8, 8).Thermal
	jitter := func(v float64) float64 { return v * (0.9 + 0.2*rng.Float64()) }
	var plats []platformDoc
	// Largest grids first, so the two slots finish together.
	for n := 11; n >= 8; n-- {
		for k := 0; k < platformsPerGrid; k++ {
			plats = append(plats, platformDoc{Width: n, Height: n, Thermal: &thermalDoc{
				Solver:              "dense",
				GLateralSi:          jitter(def.GLateralSi),
				GVertical:           jitter(def.GVertical),
				GSinkAmbientPerCore: jitter(def.GSinkAmbientPerCore),
			}})
		}
	}
	return mustJSON(sweepDoc{
		Base: runDoc{
			Scheduler: hotpotato.SchedulerSpec{Name: "pcmig"},
			Workload: &hotpotato.WorkloadSpec{
				Kind: hotpotato.WorkloadRandom, Count: 10, Rate: 40,
				Seed: uniq(0, streamMixes, r),
			},
		},
		Axes: axesDoc{Platforms: plats},
	})
}

// FabricBatch is round r of fabric-small: fabricCells tiny 4×4 HotPotato
// cells, each a one-task random mix with its own seed.
func (g *Gen) FabricBatch(r int) []byte {
	seeds := make([]int64, fabricCells)
	for i := range seeds {
		seeds[i] = uniq(g.seed, streamFabric, r*fabricCells+i)
	}
	return mustJSON(sweepDoc{
		Base: runDoc{
			Platform:  &platformDoc{Width: 4, Height: 4},
			Scheduler: hotpotato.SchedulerSpec{Name: "hotpotato"},
			Workload:  &hotpotato.WorkloadSpec{Kind: hotpotato.WorkloadRandom, Count: 1, Rate: 100},
		},
		Axes: axesDoc{Seeds: seeds},
	})
}

// smallRun is a cold 4×4 HotPotato run: a three-task random mix.
func (g *Gen) smallRun(stream, i int) []byte {
	return mustJSON(runDoc{
		Platform:  &platformDoc{Width: 4, Height: 4},
		Scheduler: hotpotato.SchedulerSpec{Name: "hotpotato"},
		Workload: &hotpotato.WorkloadSpec{
			Kind: hotpotato.WorkloadRandom, Count: 3, Rate: 100,
			Seed: uniq(g.seed, stream, i),
		},
	})
}

// ColdSweep is the sweep of the first n cold runs: the same specs, hence
// the same hashes, as ColdRun(0..n-1), as one /v1/batch document.
func (g *Gen) ColdSweep(n int) []byte {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = uniq(g.seed, streamCold, i)
	}
	return mustJSON(sweepDoc{
		Base: runDoc{
			Platform:  &platformDoc{Width: 4, Height: 4},
			Scheduler: hotpotato.SchedulerSpec{Name: "hotpotato"},
			Workload:  &hotpotato.WorkloadSpec{Kind: hotpotato.WorkloadRandom, Count: 3, Rate: 100},
		},
		Axes: axesDoc{Seeds: seeds},
	})
}

// WarmPlatformRun is the small 8×8 run set-up sends so that the server
// builds the default 8×8 platform before the sweep-hotpotato cells arrive.
func (g *Gen) WarmPlatformRun() []byte {
	rng := g.rng(streamWarm, 1<<indexBits-1)
	return mustJSON(runDoc{
		Scheduler: hotpotato.SchedulerSpec{Name: "hotpotato"},
		Workload: &hotpotato.WorkloadSpec{Kind: hotpotato.WorkloadExplicit, Tasks: []hotpotato.TaskSpec{
			{Bench: "blackscholes", Threads: 2, WorkScale: 0.01 * (1 + rng.Float64())},
		}},
	})
}

// WarmRun is the i-th run of the replay set that set-up puts in the cache.
func (g *Gen) WarmRun(i int) []byte { return g.smallRun(streamWarm, i) }

// ColdRun is the i-th run that must miss the cache.
func (g *Gen) ColdRun(i int) []byte { return g.smallRun(streamCold, i) }

// Predict is the i-th /v1/predict document: a static-pinned 4×4 run in the
// analytical twin's calibrated domain (default substrates, DTM off, an
// injective pinning, a DVFS-level frequency), shaped like the twin's own
// calibration designs.
func (g *Gen) Predict(i int) []byte {
	rng := g.rng(streamPredict, i)
	const width, height = 4, 4
	n := width * height
	benches := hotpotato.PARSEC()
	tasks := make([]hotpotato.TaskSpec, 0, 3)
	total := 0
	for t, count := 0, 1+rng.Intn(3); t < count; t++ {
		threads := min(1+rng.Intn(4), n-total)
		total += threads
		tasks = append(tasks, hotpotato.TaskSpec{
			Bench:     benches[rng.Intn(len(benches))].Name,
			Threads:   threads,
			Arrival:   float64(rng.Intn(4)) * 0.5e-3,
			WorkScale: 0.02 + 0.10*rng.Float64(),
		})
	}
	pins := make(map[hotpotato.ThreadID]int, total)
	perm := rng.Perm(n)
	for taskID, t := range tasks {
		for th := 0; th < t.Threads; th++ {
			pins[hotpotato.ThreadID{Task: taskID, Thread: th}] = perm[len(pins)]
		}
	}
	levels := hotpotato.DefaultPlatformConfig(width, height).Power.DVFS().Levels()
	off := false
	return mustJSON(runDoc{
		Platform:  &platformDoc{Width: width, Height: height},
		Sim:       &simDoc{DTMEnabled: &off},
		Scheduler: hotpotato.SchedulerSpec{Name: "static", Freq: levels[rng.Intn(len(levels))], Pins: pins},
		Workload:  &hotpotato.WorkloadSpec{Kind: hotpotato.WorkloadExplicit, Tasks: tasks},
	})
}

// Request classes of the open-loop phases.
const (
	classRun = iota
	classReplay
	classPredict
	numClasses
)

// request is one scheduled open-loop request.
type request struct {
	class int
	// doc indexes the class's document: ColdRun(doc), WarmRun(doc) or
	// Predict(doc).
	doc int
	// conditional replays send If-None-Match and expect 304.
	conditional bool
}

// Schedule returns the open-loop request sequence: n requests drawn with
// the given class weights (run, replay, predict), replays spread over the
// warm set of size warm, every other replay conditional. Cold runs and
// predictions each use a fresh document.
func (g *Gen) Schedule(n, warm int, weights [numClasses]float64) []request {
	rng := g.rng(streamSchedule, n)
	var sum float64
	for _, w := range weights {
		sum += w
	}
	out := make([]request, n)
	var next [numClasses]int
	for k := range out {
		x := rng.Float64() * sum
		c := 0
		for c < numClasses-1 && x >= weights[c] {
			x -= weights[c]
			c++
		}
		r := request{class: c, doc: next[c]}
		if c == classReplay {
			r.doc = rng.Intn(warm)
			r.conditional = next[c]%2 == 1
		}
		next[c]++
		out[k] = r
	}
	return out
}

// Probe returns n requests of one class: the endpoint probe of the sweep
// workloads sends each class on its own. Replays walk the warm set of size
// warm in order, each entry once plain and then once conditional, so any
// 2·warm consecutive replays touch every cached entry.
func (g *Gen) Probe(class, n, warm int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = request{class: class, doc: i}
		if class == classReplay {
			out[i].doc = i / 2 % warm
			out[i].conditional = i%2 == 1
		}
	}
	return out
}
