package main

// Set-up and tear-down of the in-process stacks the workloads drive: the
// front server (internal/service over httptest, Workers: 2, twin loaded)
// and, for the fabric, a dispatcher with two pull workers of one execution
// slot each, all with the settings the shipped binaries default to.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	hotpotato "repro"
	"repro/internal/fabric"
	"repro/internal/service"
)

// warmSize is the number of runs set-up puts in the result cache for the
// replays. It stays far below the cache's default 256 entries, so the cold
// runs that follow never evict a replayed entry.
const warmSize = 32

// newClient returns the load generator's HTTP client: one process, at most
// two connections per server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

// warmEntry is one replayable run: its document, the hash the benchmark
// computed for it, and the result set-up received.
type warmEntry struct {
	doc    []byte
	hash   string
	result json.RawMessage
}

// front is the single-node serving stack.
type front struct {
	svc  *service.Server
	http *httptest.Server
	warm []warmEntry
}

func (f *front) URL() string { return f.http.URL }

// startFront starts the server, loads the twin and, when warmDoc is set,
// builds the platform it declares by running it once.
func startFront(ctx context.Context, client *http.Client, root string, gen *Gen, warmDoc []byte) (*front, error) {
	model, err := hotpotato.LoadTwinModelFile(filepath.Join(root, "TWIN_model.json"))
	if err != nil {
		return nil, fmt.Errorf("load twin model: %w", err)
	}
	svc := service.New(service.Config{Workers: 2, TwinModel: model})
	f := &front{svc: svc, http: httptest.NewServer(svc.Handler())}
	if warmDoc != nil {
		if _, err := postRun(ctx, client, f.URL(), warmDoc, ""); err != nil {
			f.Close()
			return nil, fmt.Errorf("warm platform: %w", err)
		}
	}
	f.warm = make([]warmEntry, warmSize)
	errs := make(chan error, 2) // one per sender at most
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < warmSize; i += 2 {
				doc := gen.WarmRun(i)
				hash, err := docHash(doc)
				if err != nil {
					errs <- err
					return
				}
				resp, err := postRun(ctx, client, f.URL(), doc, "")
				if err != nil {
					errs <- fmt.Errorf("warm run %d: %w", i, err)
					return
				}
				if resp.etag != etagOf(hash) || resp.cached {
					errs <- fmt.Errorf("warm run %d: etag %s cached %v, want %s uncached", i, resp.etag, resp.cached, etagOf(hash))
					return
				}
				f.warm[i] = warmEntry{doc: doc, hash: hash, result: resp.result}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Close shuts the server down and waits for it.
func (f *front) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = f.svc.Shutdown(ctx) // a drain that times out force-cancels; nothing to report
	f.http.Close()
}

// health returns the front's /healthz counters.
func (f *front) health(ctx context.Context, client *http.Client) (map[string]float64, error) {
	var out map[string]any
	if err := getJSON(ctx, client, f.URL()+"/healthz", &out); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for k, v := range out {
		if x, ok := v.(float64); ok {
			m[k] = x
		}
	}
	return m, nil
}

// fabricStack is a dispatcher with two in-process pull workers.
type fabricStack struct {
	disp       *fabric.Dispatcher
	http       *httptest.Server
	stop       context.CancelFunc
	wg         sync.WaitGroup
	workers    []*service.Server
	archiveDir string
}

func (s *fabricStack) URL() string { return s.http.URL }

// startFabric starts a dispatcher over a fresh archive and two workers, and
// waits until both have registered.
func startFabric(outDir string) (*fabricStack, error) {
	dir, err := os.MkdirTemp(outDir, "archive-")
	if err != nil {
		return nil, err
	}
	archive, err := fabric.NewArchive(dir, nil)
	if err != nil {
		_ = os.RemoveAll(dir) // scratch only
		return nil, fmt.Errorf("fabric archive: %w", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &fabricStack{stop: stop, archiveDir: dir}
	s.disp = fabric.NewDispatcher(fabric.Config{Archive: archive})
	s.http = httptest.NewServer(s.disp.Handler())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.disp.Run(ctx)
	}()
	for i := 0; i < 2; i++ {
		svc := service.New(service.Config{Workers: 1})
		s.workers = append(s.workers, svc)
		w := &fabric.Worker{
			Dispatcher: s.http.URL,
			ID:         "worker-" + strconv.Itoa(i),
			Exec:       svc.ExecuteCell,
			Drift:      svc.TakeDriftReport,
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = w.Run(ctx) // returns ctx.Err() once stopped
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.disp.Snapshot().Workers < 2 {
		if time.Now().After(deadline) {
			s.Close()
			return nil, fmt.Errorf("fabric workers did not register")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// Close stops the workers, then the dispatcher, and removes the archive.
func (s *fabricStack) Close() {
	s.stop()
	s.wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, w := range s.workers {
		_ = w.Shutdown(ctx) // idle after the pull loops stopped
	}
	s.http.Close()
	_ = os.RemoveAll(s.archiveDir) // scratch only; a leftover is harmless
}

// runResponse is the part of a /v1/run answer the benchmark checks.
type runResponse struct {
	status int
	etag   string
	cached bool
	result json.RawMessage
	body   []byte
}

// postRun sends one /v1/run, optionally conditional, and requires a 200
// (or, for a conditional request, a 304).
func postRun(ctx context.Context, client *http.Client, base string, doc []byte, ifNoneMatch string) (runResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/run", bytes.NewReader(doc))
	if err != nil {
		return runResponse{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := client.Do(req)
	if err != nil {
		return runResponse{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return runResponse{}, err
	}
	out := runResponse{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: body}
	switch {
	case resp.StatusCode == http.StatusNotModified && ifNoneMatch != "":
		return out, nil
	case resp.StatusCode != http.StatusOK:
		return out, fmt.Errorf("/v1/run: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var r struct {
		Result json.RawMessage `json:"result"`
		Cached bool            `json:"cached"`
		Error  string          `json:"error"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return out, fmt.Errorf("/v1/run: %w", err)
	}
	if r.Error != "" || len(r.Result) == 0 {
		return out, fmt.Errorf("/v1/run: error %q", r.Error)
	}
	out.cached, out.result = r.Cached, r.Result
	return out, nil
}

// postPredict sends one /v1/predict and returns the prediction's raw JSON.
func postPredict(ctx context.Context, client *http.Client, base string, doc []byte) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/predict", bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/predict: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var r struct {
		Prediction json.RawMessage `json:"prediction"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("/v1/predict: %w", err)
	}
	return r.Prediction, nil
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func etagOf(hash string) string { return `"` + hash + `"` }

// docHash is the benchmark's own SpecHash of a run document.
func docHash(doc []byte) (string, error) {
	var spec hotpotato.RunSpec
	if err := json.Unmarshal(doc, &spec); err != nil {
		return "", err
	}
	return hotpotato.SpecHash(spec)
}
