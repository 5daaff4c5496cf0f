package main

// The two load shapes: a closed loop of streamed POST /v1/batch sweeps, and
// an open loop of /v1/run, replay and /v1/predict requests at a fixed
// arrival rate, each timed from when it was due.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	hotpotato "repro"
)

// batchResult is one streamed sweep: its expected cells, the records
// received, and its timing.
type batchResult struct {
	round   int
	doc     []byte
	cells   []hotpotato.SweepCell
	hashes  []string
	results []json.RawMessage
	sweepID string
	start   time.Time
	wall    time.Duration
	pickup  time.Duration
	// requeues is the dispatcher's requeue tally for the sweep, read from
	// its status right after the stream ended (traced fabric runs only).
	requeues int
	// arrivals are the receive times of the result records.
	arrivals []time.Time
	failed   int
	errs     []error
}

// expandDoc decodes a sweep document and computes the benchmark's own hash
// of every cell.
func expandDoc(doc []byte) ([]hotpotato.SweepCell, []string, error) {
	var sw hotpotato.SweepSpec
	if err := json.Unmarshal(doc, &sw); err != nil {
		return nil, nil, err
	}
	if err := sw.Validate(); err != nil {
		return nil, nil, err
	}
	cells, err := sw.Expand()
	if err != nil {
		return nil, nil, err
	}
	hashes := make([]string, len(cells))
	for i, c := range cells {
		if hashes[i], err = hotpotato.SpecHash(c.Spec); err != nil {
			return nil, nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return cells, hashes, nil
}

// streamBatch posts one sweep and reads its stream to the summary. Every
// cell must arrive once, cold, with status ok and the benchmark's hash;
// a cell that does not counts as failed.
func streamBatch(ctx context.Context, client *http.Client, base string, b *batchResult) error {
	fail := func(err error) {
		b.failed++
		b.errs = append(b.errs, err)
	}
	b.results = make([]json.RawMessage, len(b.cells))
	seen := make([]bool, len(b.cells))
	start := time.Now()
	b.start = start
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/batch", bytes.NewReader(b.doc))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/batch: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	var summary *hotpotato.SweepSummary
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Type    string          `json:"type"`
			SweepID string          `json:"sweep_id"`
			Index   int             `json:"index"`
			Hash    string          `json:"hash"`
			Status  string          `json:"status"`
			Cached  bool            `json:"cached"`
			Error   string          `json:"error"`
			Result  json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("/v1/batch record: %w", err)
		}
		switch rec.Type {
		case "sweep":
			b.sweepID = rec.SweepID
		case "result":
			now := time.Now()
			b.arrivals = append(b.arrivals, now)
			if b.pickup == 0 {
				b.pickup = now.Sub(start)
			}
			switch {
			case rec.Index < 0 || rec.Index >= len(b.cells):
				fail(fmt.Errorf("record index %d out of range", rec.Index))
				continue
			case seen[rec.Index]:
				fail(fmt.Errorf("cell %d streamed twice", rec.Index))
				continue
			}
			seen[rec.Index] = true
			switch {
			case rec.Status != "ok" || rec.Error != "" || len(rec.Result) == 0:
				fail(fmt.Errorf("cell %d: status %q error %q", rec.Index, rec.Status, rec.Error))
			case rec.Hash != b.hashes[rec.Index]:
				fail(fmt.Errorf("cell %d: hash %s, benchmark computed %s", rec.Index, rec.Hash, b.hashes[rec.Index]))
			case rec.Cached:
				fail(fmt.Errorf("cell %d replayed from a cache; cells must be cold", rec.Index))
			default:
				b.results[rec.Index] = rec.Result
			}
		case "summary":
			summary = new(hotpotato.SweepSummary)
			if err := json.Unmarshal(line, summary); err != nil {
				return fmt.Errorf("/v1/batch summary: %w", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("/v1/batch stream: %w", err)
	}
	b.wall = time.Since(start)
	if summary == nil {
		return fmt.Errorf("/v1/batch stream ended without a summary")
	}
	for i, ok := range seen {
		if !ok {
			fail(fmt.Errorf("cell %d missing from the stream", i))
		}
	}
	if summary.Completed != len(b.cells) || summary.Total != len(b.cells) {
		fail(fmt.Errorf("summary %+v for %d cells", *summary, len(b.cells)))
	}
	return nil
}

// sweepPhase is a closed loop of clients, each posting the next batch as
// soon as its previous one ended, until rounds batches have been sent or,
// on a host far slower than the one the rounds were sized on, until the
// time limit has passed.
type sweepPhase struct {
	batches []*batchResult
	clients int
	start   time.Time
	wall    time.Duration
	cells   int
	failed  int
	errs    []error
}

// runSweeps runs a sweep phase, batch(r) giving round r's document. after,
// when set, runs on the client's goroutine once a batch has streamed
// completely.
func runSweeps(ctx context.Context, client *http.Client, base string, clients, rounds int, limit time.Duration, tr *tracer, batch func(round int) []byte, after func(*batchResult) error) *sweepPhase {
	p := &sweepPhase{clients: clients}
	var mu sync.Mutex
	round := 0
	next := func() (*batchResult, bool, error) {
		mu.Lock()
		r := round
		round++
		mu.Unlock()
		if r >= rounds || time.Since(p.start) > limit {
			return nil, false, nil
		}
		doc := batch(r)
		cells, hashes, err := expandDoc(doc)
		return &batchResult{round: r, doc: doc, cells: cells, hashes: hashes}, true, err
	}
	p.start = time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				b, ok, err := next()
				if !ok {
					return
				}
				if err == nil {
					sp := tr.start("client.batch", 0)
					err = streamBatch(ctx, client, base, b)
					tr.end(sp)
				}
				if err == nil && after != nil {
					err = after(b)
				}
				if err != nil {
					b.failed = len(b.cells)
					b.errs = append(b.errs, err)
				}
				mu.Lock()
				p.batches = append(p.batches, b)
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(p.start)
	for _, b := range p.batches {
		p.cells += len(b.cells)
		p.failed += b.failed
		p.errs = append(p.errs, b.errs...)
	}
	return p
}

// rateWindow is the window over which a multi-client sweep's completions
// are counted.
const rateWindow = time.Second

// cellRates returns the phase's throughput samples in cells/s, whose median
// is reported so that a burst of host noise moves one sample, not the
// figure: one per batch when a single client streams batches back to back,
// one per rateWindow of result arrivals when batches overlap.
func (p *sweepPhase) cellRates() *Samples {
	var s Samples
	if p.clients == 1 {
		for _, b := range p.batches {
			if b.failed == 0 && b.wall > 0 {
				s.Add(float64(len(b.cells)) / b.wall.Seconds())
			}
		}
		return &s
	}
	// Windows start at the first result: until the first sweep arrives the
	// workers sit in their idle poll, which is set-up, not throughput.
	var first time.Time
	for _, b := range p.batches {
		for _, t := range b.arrivals {
			if first.IsZero() || t.Before(first) {
				first = t
			}
		}
	}
	var counts []int
	for _, b := range p.batches {
		for _, t := range b.arrivals {
			w := int(t.Sub(first) / rateWindow)
			for len(counts) <= w {
				counts = append(counts, 0)
			}
			counts[w]++
		}
	}
	// The last window is partial.
	for _, c := range counts[:max(len(counts)-1, 0)] {
		s.Add(float64(c) / rateWindow.Seconds())
	}
	return &s
}

// served is one open-loop request as it was answered.
type served struct {
	req     request
	doc     []byte
	hash    string
	latency time.Duration // from when it was due
	service time.Duration // from when it was sent
	late    time.Duration // how far behind schedule it was sent
	resp    runResponse
	pred    json.RawMessage
	err     error
}

var spanNames = [numClasses]string{"client.run", "client.replay", "client.predict"}

// runOpenLoop sends reqs at rate per second over two connections. Request k
// is due at start + k/rate; a sender that falls behind sends at once, and
// the wait counts in the latency.
func runOpenLoop(ctx context.Context, client *http.Client, f *front, gen *Gen, reqs []request, rate float64, tr *tracer) ([]served, time.Duration) {
	out := make([]served, len(reqs))
	docs := make([][]byte, len(reqs))
	hashes := make([]string, len(reqs))
	for k, r := range reqs {
		switch r.class {
		case classRun:
			docs[k] = gen.ColdRun(r.doc)
		case classReplay:
			docs[k], hashes[k] = f.warm[r.doc].doc, f.warm[r.doc].hash
		case classPredict:
			docs[k] = gen.Predict(r.doc)
		}
		if hashes[k] == "" {
			h, err := docHash(docs[k])
			if err != nil {
				out[k].err = err
			}
			hashes[k] = h
		}
	}
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(reqs) || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				s := &out[k]
				s.req, s.doc, s.hash, s.late = reqs[k], docs[k], hashes[k], sent.Sub(due)
				if s.err != nil {
					continue
				}
				sp := tr.start(spanNames[reqs[k].class], 0)
				switch reqs[k].class {
				case classPredict:
					s.pred, s.err = postPredict(ctx, client, f.URL(), docs[k])
				case classReplay:
					etag := ""
					if reqs[k].conditional {
						etag = etagOf(hashes[k])
					}
					s.resp, s.err = postRun(ctx, client, f.URL(), docs[k], etag)
				default:
					s.resp, s.err = postRun(ctx, client, f.URL(), docs[k], "")
				}
				done := time.Now()
				tr.end(sp)
				s.latency, s.service = done.Sub(due), done.Sub(sent)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}
