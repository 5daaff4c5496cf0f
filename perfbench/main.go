// Command perfbench is the repository's benchmark. It drives the public
// surfaces in-process — the hotpotato facade, internal/service over
// httptest, and the internal/fabric dispatcher with in-process pull workers
// — with documents generated from --seed, checks every output, and prints
// one metric per line (name, value, unit, sample count) followed by a JSON
// result line:
//
//	perfbench --workload sweep-hotpotato --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the workload
// and reports the per-layer metrics, timed from outside around calls into
// each layer, and writes the spans as JSONL. All timings are host time.
// Simulated statistics are outputs to check, never metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	hotpotato "repro"
)

// workload is one benchmark input set.
type workload struct {
	name string
	// clients is the number of closed-loop sweep clients; 0 makes the
	// workload an open loop of single requests.
	clients int
	// fabric sends the sweeps to a dispatcher instead of the front server.
	fabric bool
	batch  func(g *Gen, round int) []byte
	// batchSeconds is about how long one batch, with its probe segment on a
	// single-client sweep, takes on the seed code; a run sends
	// --seconds/batchSeconds batches, so every run of a workload does the
	// same work and holds the same state (the platform cache grows with the
	// cells run), whatever the host's speed.
	batchSeconds float64
	// warmPlatform builds the default 8×8 platform during set-up.
	warmPlatform bool
}

// BENCHMARK.json gates the two single-client sweeps only. The speed of a
// shared 2-vCPU host drifts over minutes: 45-second means of a fixed
// compute loop spread by 16% (quartile distance over median) across nine
// minutes. The time allowed for the full set of gated runs gives runs that
// long to two workloads, not four. fabric-small and serve-mixed run by hand.
var workloads = []workload{
	{name: "sweep-hotpotato", clients: 1, batch: (*Gen).HotPotatoBatch, batchSeconds: 4, warmPlatform: true},
	{name: "sweep-platforms", clients: 1, batch: (*Gen).PlatformsBatch, batchSeconds: 3},
	// Two clients keep a batch queued while the other drains, so the
	// workers' one-second idle poll (the shipped default) never stalls the
	// loop between batches.
	{name: "fabric-small", clients: 2, fabric: true, batch: (*Gen).FabricBatch, batchSeconds: 0.25},
	{name: "serve-mixed"},
}

const (
	// setups is how many times each run sets up its stack; setup_s is the
	// median.
	setups = 5
	// serveRate is serve-mixed's arrival rate (requests/s). The seed code
	// sustains about 1000-1200 requests/s of this mix over two connections
	// on a 2-vCPU Xeon host (at 1400/s the backlog grows). With cold runs
	// holding a connection for ~11 ms, replays and predictions then often
	// wait for a free one, and their p90 moved by 30-60% between runs with
	// the host's speed at 600/s and by up to 40% at 300/s; at 200/s they
	// rarely wait and the tails are steady enough to gate on.
	serveRate = 200
	// coldSample is how many served cold runs the library path repeats to
	// check them; the traced run repeats tracedColdSample.
	coldSample       = 8
	tracedColdSample = 32
)

// The endpoint probe of the sweep workloads sends probeCounts requests of
// each class (cold runs, replays, predictions) as one open loop per class on
// the otherwise idle server, at probeRates requests/s: each rate leaves more
// time between arrivals than the seed code takes to answer, so the probe
// measures unloaded latency. The cheap classes get more samples, which
// steadies their p90 against host jitter of a millisecond or two.
var (
	probeCounts = [numClasses]int{150, 300, 300}
	probeRates  = [numClasses]float64{50, 300, 300}
)

// mixWeights is serve-mixed's request mix: cold runs, replays, predictions.
var mixWeights = [numClasses]float64{0.15, 0.60, 0.25}

func main() {
	name := flag.String("workload", "", "workload: sweep-hotpotato, sweep-platforms, fabric-small or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	root := flag.String("root", ".", "repository root (holds TWIN_model.json)")
	out := flag.String("out", ".bench_build", "directory for span files and fabric archives")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fail(fmt.Errorf("unknown workload %q", *name))
	case *trace != 0 && *trace != 1:
		fail(fmt.Errorf("--trace must be 0 or 1"))
	case *seconds <= 0:
		fail(fmt.Errorf("--seconds must be positive"))
	}
	if _, err := os.Stat(filepath.Join(*root, "go.mod")); err != nil {
		fail(fmt.Errorf("no repository at %s: %w", *root, err))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	b := &bench{w: w, seconds: *seconds, root: *root, out: *out, client: newClient()}
	var err error
	if b.gen, err = NewGen(*seed); err != nil {
		fail(err)
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	rep, err := b.run(context.Background())
	if err != nil {
		fail(err)
	}
	rep.WriteTable(os.Stdout)
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	for _, e := range rep.Errs() {
		fmt.Fprintln(os.Stderr, "metric:", e)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   b.failed == 0 && len(rep.Errs()) == 0,
		"attempted": max(b.attempted, 1),
		"failed":    b.failed,
		"metrics":   rep.JSON(),
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// bench is one run.
type bench struct {
	w       *workload
	gen     *Gen
	seconds float64
	root    string
	out     string
	client  *http.Client
	tr      *tracer // nil in the untraced run

	attempted, failed int
	errs              []error
}

// check counts one failed operation and keeps its reason.
func (b *bench) check(err error) {
	if err != nil {
		b.failed++
		b.keep(err)
	}
}

// keep records failure reasons for the report, up to maxErrs of them.
func (b *bench) keep(errs ...error) {
	for _, err := range errs {
		if len(b.errs) < maxErrs {
			b.errs = append(b.errs, err)
		}
	}
}

const maxErrs = 20

// stack is the set-up a run measures against.
type stack struct {
	front *front
	fab   *fabricStack
}

func (s *stack) Close() {
	if s.fab != nil {
		s.fab.Close()
	}
	s.front.Close()
}

func (b *bench) setUp(ctx context.Context) (*stack, error) {
	var warm []byte
	if b.w.warmPlatform {
		warm = b.gen.WarmPlatformRun()
	}
	f, err := startFront(ctx, b.client, b.root, b.gen, warm)
	if err != nil {
		return nil, err
	}
	st := &stack{front: f}
	if b.w.fabric {
		if st.fab, err = startFabric(b.out); err != nil {
			f.Close()
			return nil, err
		}
	}
	return st, nil
}

func (b *bench) run(ctx context.Context) (*Report, error) {
	var setup Samples
	var st *stack
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		s, err := b.setUp(ctx)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup.Add(time.Since(t0).Seconds())
		if i < setups-1 {
			s.Close()
		} else {
			st = s
		}
	}
	defer st.Close()

	var leases0 float64
	if b.tr != nil && st.fab != nil {
		var err error
		if leases0, err = fabricLeases(ctx, b.client, st.fab.URL()); err != nil {
			return nil, err
		}
	}

	// The measured phase, from a collected heap so that a collection left
	// over from set-up does not land in it.
	runtime.GC()
	h0, err := st.front.health(ctx, b.client)
	if err != nil {
		return nil, err
	}
	rss := startRSS()
	var sweeps *sweepPhase
	var open []served
	var openWall time.Duration
	if b.w.clients > 0 {
		base := st.front.URL()
		if st.fab != nil {
			base = st.fab.URL()
		}
		rounds := max(1, int(math.Round(b.seconds/b.w.batchSeconds)))
		limit := time.Duration(1.2 * b.seconds * float64(time.Second))
		// The endpoint probe runs in segments. A single client leaves the
		// server idle between its batches, so one segment follows each
		// batch: a few seconds of host trouble then spoil one segment, not
		// the whole probe. With two clients the probe follows the sweeps.
		segments, done := 1, 0
		if b.w.clients == 1 {
			segments = rounds
		}
		probe := func() {
			open = append(open, b.probeSegment(ctx, st.front, done, segments)...)
			done++
		}
		var after func(*batchResult) error
		switch {
		case b.w.clients == 1:
			after = func(*batchResult) error {
				probe()
				return nil
			}
		case b.tr != nil && st.fab != nil:
			// The dispatcher keeps the status of its latest sweeps only.
			after = func(bt *batchResult) (err error) {
				bt.requeues, err = sweepRequeues(ctx, b.client, base, bt.sweepID)
				return err
			}
		}
		sweeps = runSweeps(ctx, b.client, base, b.w.clients, rounds, limit, b.tr, func(r int) []byte { return b.w.batch(b.gen, r) }, after)
		b.attempted += sweeps.cells
		b.failed += sweeps.failed
		b.keep(sweeps.errs...)
		for done < segments {
			probe()
		}
	} else {
		reqs := b.gen.Schedule(int(serveRate*b.seconds), warmSize, mixWeights)
		open, openWall = runOpenLoop(ctx, b.client, st.front, b.gen, reqs, serveRate, b.tr)
	}
	peakRSS, rssSamples := rss.Stop()
	h1, err := st.front.health(ctx, b.client)
	if err != nil {
		return nil, err
	}

	ol := b.checkOpenLoop(st.front, open)
	// Sweep cells are cold, so every result-cache hit is a 200 replay.
	if got := int(h1["result_cache_hits"] - h0["result_cache_hits"]); got != ol.replays200 {
		b.check(fmt.Errorf("%d result cache hits during the measured phase, want one per 200 replay (%d)", got, ol.replays200))
	}

	lib := newLibrary(b.tr)
	if err := b.checkPredictions(lib, open); err != nil {
		return nil, err
	}
	n := coldSample
	if b.tr != nil {
		n = tracedColdSample
	}
	colds := ol.colds[:min(n, len(ol.colds))]
	coldLib, err := b.checkColdRuns(ctx, lib, colds)
	if err != nil {
		return nil, err
	}

	rep := &Report{}
	if b.tr == nil {
		if sweeps != nil {
			if err := b.checkSweepSample(ctx, lib, sweeps); err != nil {
				return nil, err
			}
		}
		rep.SetQuantile("setup_s", &setup, 0.5, "s")
		if sweeps != nil {
			rates := sweeps.cellRates()
			fmt.Fprintf(os.Stderr, "cells_per_s samples: %.4g\n", rates.v)
			rep.SetQuantile("cells_per_s", rates, 0.5, "1/s")
		} else {
			// Cold runs and replays (200 and 304) answered.
			n := ol.lat[classRun].N() - ol.lat[classRun].Failed() + ol.lat[classReplay].N() - ol.lat[classReplay].Failed()
			rep.Set("cells_per_s", float64(n)/openWall.Seconds(), "1/s", n)
		}
		for c, prefix := range [numClasses]string{"run", "replay", "predict"} {
			rep.SetQuantile(prefix+"_p50_ms", &ol.lat[c], 0.5, "ms")
			rep.SetQuantile(prefix+"_p90_ms", &ol.lat[c], 0.9, "ms")
		}
		rep.Set("peak_rss_mb", peakRSS, "MB", rssSamples)
		return rep, nil
	}

	if err := b.layers(ctx, rep, st, lib, sweeps, ol, colds, coldLib, leases0); err != nil {
		return nil, err
	}
	path := filepath.Join(b.out, fmt.Sprintf("trace-%s-%d.jsonl", b.w.name, b.gen.seed))
	if err := b.tr.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "spans written to", path)
	return rep, nil
}

// probeSegment sends segment k of segments of the endpoint probe: a slice
// of each class's requests, each class as its own open loop. Replays go
// first: the cold runs that follow add entries to the result cache, and
// replays must find the warm set still there.
func (b *bench) probeSegment(ctx context.Context, f *front, k, segments int) []served {
	// Collect the sweep's garbage first, so the collection does not land
	// in the probe.
	runtime.GC()
	var out []served
	for _, c := range []int{classReplay, classPredict, classRun} {
		reqs := b.gen.Probe(c, probeCounts[c], warmSize)
		reqs = reqs[k*len(reqs)/segments : (k+1)*len(reqs)/segments]
		o, _ := runOpenLoop(ctx, b.client, f, b.gen, reqs, probeRates[c], b.tr)
		out = append(out, o...)
	}
	return out
}

// openLoop is the checked outcome of an open-loop phase.
type openLoop struct {
	lat        [numClasses]Samples // ms from due time; failures are +Inf
	late       Samples             // ms behind schedule at send
	replays200 int
	colds      []*served // successful cold runs, in document order
}

// checkOpenLoop checks every answer: cold runs are fresh with the
// benchmark's ETag, plain replays are cache hits bit-identical to the
// set-up result, conditional replays are bodiless 304s with the same ETag.
func (b *bench) checkOpenLoop(f *front, open []served) *openLoop {
	ol := &openLoop{}
	for i := range open {
		s := &open[i]
		b.attempted++
		ol.late.Add(ms(s.late))
		err := s.err
		if err == nil {
			err = checkAnswer(f, s)
		}
		c := s.req.class
		if err != nil {
			ol.lat[c].Fail()
			b.check(err)
			continue
		}
		ol.lat[c].Add(ms(s.latency))
		switch {
		case c == classReplay && !s.req.conditional:
			ol.replays200++
		case c == classRun:
			ol.colds = append(ol.colds, s)
		}
	}
	// Document order, so a run's sample does not depend on timing.
	sort.Slice(ol.colds, func(i, j int) bool { return ol.colds[i].req.doc < ol.colds[j].req.doc })
	return ol
}

func checkAnswer(f *front, s *served) error {
	want := etagOf(s.hash)
	switch s.req.class {
	case classRun:
		if s.resp.status != http.StatusOK || s.resp.cached || s.resp.etag != want {
			return fmt.Errorf("cold run %d: status %d cached %v etag %s, want 200 uncached %s", s.req.doc, s.resp.status, s.resp.cached, s.resp.etag, want)
		}
	case classReplay:
		if s.req.conditional {
			if s.resp.status != http.StatusNotModified || len(s.resp.body) != 0 || s.resp.etag != want {
				return fmt.Errorf("conditional replay %d: status %d, %d body bytes, etag %s; want a bodiless 304 with %s", s.req.doc, s.resp.status, len(s.resp.body), s.resp.etag, want)
			}
			return nil
		}
		if !s.resp.cached || s.resp.etag != want {
			return fmt.Errorf("replay %d: cached %v etag %s, want a cache hit with %s", s.req.doc, s.resp.cached, s.resp.etag, want)
		}
		same, err := sameResult(s.resp.result, f.warm[s.req.doc].result)
		if err != nil {
			return err
		}
		if !same {
			return fmt.Errorf("replay %d differs from the result set-up received", s.req.doc)
		}
	case classPredict:
		if len(s.pred) == 0 {
			return fmt.Errorf("predict %d: empty prediction", s.req.doc)
		}
	}
	return nil
}

// library is the in-process reference: its own twin, platforms and timings.
type library struct {
	tr      *tracer
	model   *hotpotato.TwinModel
	plats   *platforms
	predict Samples // µs per TwinPredict
}

func newLibrary(tr *tracer) *library { return &library{tr: tr, plats: newPlatforms()} }

// checkPredictions compares every served prediction with the library's
// TwinPredict of the same document.
func (b *bench) checkPredictions(lib *library, open []served) error {
	var err error
	if lib.model, err = hotpotato.LoadTwinModelFile(filepath.Join(b.root, "TWIN_model.json")); err != nil {
		return err
	}
	for i := range open {
		s := &open[i]
		if s.req.class != classPredict || s.err != nil || len(s.pred) == 0 {
			continue
		}
		var spec hotpotato.RunSpec
		if err := json.Unmarshal(s.doc, &spec); err != nil {
			return err
		}
		plat, err := lib.plats.get(spec.WithDefaults().Platform, nil)
		if err != nil {
			return err
		}
		sp := lib.tr.start("twin.predict", 0)
		t0 := time.Now()
		pred, err := hotpotato.TwinPredict(lib.model, plat, spec)
		lib.predict.Add(us(time.Since(t0)))
		lib.tr.end(sp)
		if err != nil {
			b.check(fmt.Errorf("predict %d: library: %w", s.req.doc, err))
			continue
		}
		same, err := samePrediction(s.pred, pred)
		if err != nil {
			return err
		}
		if !same {
			b.check(fmt.Errorf("predict %d: served prediction differs from TwinPredict", s.req.doc))
		}
	}
	return nil
}

// libRepeats is how often the traced run repeats each sampled cold run.
const libRepeats = 3

// checkColdRuns repeats served cold runs through the library and returns
// each one's library wall time.
func (b *bench) checkColdRuns(ctx context.Context, lib *library, colds []*served) ([]time.Duration, error) {
	walls := make([]time.Duration, len(colds))
	for i, s := range colds {
		var spec hotpotato.RunSpec
		if err := json.Unmarshal(s.doc, &spec); err != nil {
			return nil, err
		}
		plat, err := lib.plats.get(spec.WithDefaults().Platform, nil)
		if err != nil {
			return nil, err
		}
		res, wall, err := libRun(ctx, plat, spec)
		if err != nil {
			return nil, err
		}
		// In the traced run the wall feeds service.overhead_ms; the fastest
		// of libRepeats runs keeps host jitter out of the library side.
		for r := 1; b.tr != nil && r < libRepeats; r++ {
			_, w, err := libRun(ctx, plat, spec)
			if err != nil {
				return nil, err
			}
			wall = min(wall, w)
		}
		walls[i] = wall
		b.check(compare(fmt.Sprintf("cold run %d", s.req.doc), s.resp.result, res))
	}
	return walls, nil
}

func compare(what string, served, lib json.RawMessage) error {
	same, err := sameResult(served, lib)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if !same {
		return fmt.Errorf("%s: served Result differs from the library's", what)
	}
	return nil
}

// sweepChecks is how many local-sweep cells an untraced run repeats through
// the library.
const sweepChecks = 4

// checkSweepSample checks the untraced run's sweep outputs against the
// library: on the fabric, every cell of the first batch against
// ExecuteSweepCells; on a local sweep, sweepChecks cells spread over the
// batches and over the positions in a batch, shifted by the seed so that
// runs with different seeds check different cells.
func (b *bench) checkSweepSample(ctx context.Context, lib *library, p *sweepPhase) error {
	if b.w.fabric {
		first := p.first()
		if first == nil {
			return errors.New("no complete batch to check")
		}
		return b.checkFabricBatch(ctx, first)
	}
	var batches []*batchResult
	for _, bt := range p.batches {
		if bt.failed == 0 && len(bt.errs) == 0 {
			batches = append(batches, bt)
		}
	}
	if len(batches) == 0 {
		return errors.New("no complete batch to check")
	}
	for j := 0; j < sweepChecks; j++ {
		bt := batches[j%len(batches)]
		i := int((b.gen.seed + int64(j*len(bt.cells)/sweepChecks)) % int64(len(bt.cells)))
		c := bt.cells[i]
		plat, err := lib.plats.get(c.Spec.Platform, nil)
		if err != nil {
			return err
		}
		res, _, err := libRun(ctx, plat, c.Spec)
		if err != nil {
			return err
		}
		b.check(compare(fmt.Sprintf("batch %d cell %d", bt.round, i), bt.results[i], res))
	}
	return nil
}

// checkFabricBatch compares a fabric stream's (index, hash, result)
// triples with ExecuteSweepCells on the same cells.
func (b *bench) checkFabricBatch(ctx context.Context, bt *batchResult) error {
	var errs []error
	err := hotpotato.ExecuteSweepCells(ctx, bt.cells, hotpotato.SweepOptions{Workers: 2}, func(r hotpotato.SweepCellResult) {
		if r.Err != nil || r.Result == nil {
			errs = append(errs, fmt.Errorf("ExecuteSweepCells cell %d: %v", r.Index, r.Err))
			return
		}
		if r.Hash != bt.hashes[r.Index] {
			errs = append(errs, fmt.Errorf("cell %d: ExecuteSweepCells hash %s, stream %s", r.Index, r.Hash, bt.hashes[r.Index]))
			return
		}
		res, err := json.Marshal(r.Result)
		if err != nil {
			errs = append(errs, err)
			return
		}
		if err := compare(fmt.Sprintf("fabric cell %d", r.Index), bt.results[r.Index], res); err != nil {
			errs = append(errs, err)
		}
	})
	if err != nil {
		return err
	}
	for _, e := range errs {
		b.check(e)
	}
	return nil
}

// first returns the fully streamed batch of round 0, if any.
func (p *sweepPhase) first() *batchResult {
	for _, bt := range p.batches {
		if bt.round == 0 && bt.failed == 0 && len(bt.errs) == 0 {
			return bt
		}
	}
	return nil
}

// rssSampler records the largest resident set seen while it runs.
type rssSampler struct {
	stop, done chan struct{}
	peakMB     float64
	samples    int
}

// startRSS samples the resident set every rssEvery until Stop.
func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, ok := rssMB(); ok {
				r.peakMB = max(r.peakMB, mb)
				r.samples++
			}
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

const rssEvery = 10 * time.Millisecond

// Stop ends the sampling and returns the peak in MB and the sample count.
func (r *rssSampler) Stop() (float64, int) {
	close(r.stop)
	<-r.done
	return r.peakMB, r.samples
}

// rssMB reads the process's resident set size.
func rssMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}
