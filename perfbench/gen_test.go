package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	hotpotato "repro"
)

// docs returns every document a run of any workload can send for gen, a
// few rounds deep.
func docs(t *testing.T, g *Gen) (runs, predicts, sweeps [][]byte) {
	t.Helper()
	for i := 0; i < warmSize; i++ {
		runs = append(runs, g.WarmRun(i))
	}
	for i := 0; i < 40; i++ {
		runs = append(runs, g.ColdRun(i))
		predicts = append(predicts, g.Predict(i))
	}
	runs = append(runs, g.WarmPlatformRun())
	for r := 0; r < 3; r++ {
		sweeps = append(sweeps, g.HotPotatoBatch(r), g.PlatformsBatch(r), g.FabricBatch(r))
	}
	sweeps = append(sweeps, g.ColdSweep(tracedColdSample))
	return runs, predicts, sweeps
}

// hashes returns the SpecHash of every run and sweep cell, failing the
// test on any document that does not decode or validate.
func hashes(t *testing.T, g *Gen) []string {
	t.Helper()
	runs, predicts, sweeps := docs(t, g)
	var out []string
	for _, doc := range append(runs, predicts...) {
		var spec hotpotato.RunSpec
		if err := json.Unmarshal(doc, &spec); err != nil {
			t.Fatalf("decode %s: %v", doc, err)
		}
		if err := spec.WithDefaults().Validate(); err != nil {
			t.Fatalf("validate %s: %v", doc, err)
		}
		h, err := hotpotato.SpecHash(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, h)
	}
	for _, doc := range sweeps {
		cells, hs, err := expandDoc(doc)
		if err != nil {
			t.Fatalf("sweep %s: %v", doc, err)
		}
		for _, c := range cells {
			if err := c.Spec.Validate(); err != nil {
				t.Fatalf("sweep cell %d: %v", c.Index, err)
			}
		}
		out = append(out, hs...)
	}
	return out
}

func TestSameSeedSameDocuments(t *testing.T) {
	a, _ := NewGen(7)
	b, _ := NewGen(7)
	ra, pa, sa := docs(t, a)
	rb, pb, sb := docs(t, b)
	for i, pair := range [][2][][]byte{{ra, rb}, {pa, pb}, {sa, sb}} {
		for j := range pair[0] {
			if !bytes.Equal(pair[0][j], pair[1][j]) {
				t.Fatalf("set %d doc %d differs between two generators of one seed", i, j)
			}
		}
	}
	ha, hb := hashes(t, a), hashes(t, b)
	for i := range ha {
		if ha[i] != hb[i] {
			t.Fatalf("hash %d differs between two generators of one seed", i)
		}
	}
	if s1, s2 := a.Schedule(500, warmSize, mixWeights), b.Schedule(500, warmSize, mixWeights); len(s1) != len(s2) {
		t.Fatal("schedules differ in length")
	} else {
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("schedule entry %d differs", i)
			}
		}
	}
}

func TestSeedsGiveDisjointHashes(t *testing.T) {
	seen := map[string]int64{}
	for _, seed := range []int64{0, 1, 2, 1 << 20, MaxSeed} {
		g, err := NewGen(seed)
		if err != nil {
			t.Fatal(err)
		}
		// Within one seed a hash appears once, except that the cold sweep
		// repeats the cold runs by design.
		own := map[string]bool{}
		for _, h := range hashes(t, g) {
			if other, ok := seen[h]; ok && other != seed {
				t.Fatalf("hash %s made by seeds %d and %d", h, other, seed)
			}
			seen[h] = seed
			own[h] = true
		}
		if len(own) < 300 {
			t.Fatalf("seed %d: only %d distinct hashes", seed, len(own))
		}
	}
}

func TestWarmAndColdStreamsDisjoint(t *testing.T) {
	g, _ := NewGen(3)
	warm := map[string]bool{}
	for i := 0; i < warmSize; i++ {
		h, err := docHash(g.WarmRun(i))
		if err != nil {
			t.Fatal(err)
		}
		warm[h] = true
	}
	for i := 0; i < 2000; i++ {
		h, err := docHash(g.ColdRun(i))
		if err != nil {
			t.Fatal(err)
		}
		if warm[h] {
			t.Fatalf("cold run %d hashes like a warm run", i)
		}
	}
}

func TestPredictionsInTwinDomain(t *testing.T) {
	model, err := hotpotato.LoadTwinModelFile(filepath.Join("..", "TWIN_model.json"))
	if err != nil {
		t.Fatal(err)
	}
	g, _ := NewGen(11)
	plats := newPlatforms()
	for i := 0; i < 200; i++ {
		var spec hotpotato.RunSpec
		if err := json.Unmarshal(g.Predict(i), &spec); err != nil {
			t.Fatal(err)
		}
		plat, err := plats.get(spec.WithDefaults().Platform, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hotpotato.TwinPredict(model, plat, spec); err != nil {
			if errors.Is(err, hotpotato.ErrTwinDomain) {
				t.Fatalf("predict %d outside the twin domain: %v", i, err)
			}
			t.Fatalf("predict %d: %v", i, err)
		}
	}
}

func TestScheduleMix(t *testing.T) {
	g, _ := NewGen(5)
	reqs := g.Schedule(20000, warmSize, mixWeights)
	var count [numClasses]int
	conditional := 0
	for _, r := range reqs {
		count[r.class]++
		if r.class == classReplay {
			if r.doc < 0 || r.doc >= warmSize {
				t.Fatalf("replay of warm run %d", r.doc)
			}
			if r.conditional {
				conditional++
			}
		}
	}
	for c, w := range mixWeights {
		if got := float64(count[c]) / float64(len(reqs)); got < w-0.02 || got > w+0.02 {
			t.Errorf("class %d share %.3f, want %.2f", c, got, w)
		}
	}
	if half := count[classReplay] / 2; conditional < half-1 || conditional > half+1 {
		t.Errorf("%d of %d replays conditional, want half", conditional, count[classReplay])
	}
}

func TestSeedRange(t *testing.T) {
	for _, s := range []int64{-1, MaxSeed + 1} {
		if _, err := NewGen(s); err == nil {
			t.Errorf("seed %d accepted", s)
		}
	}
}
