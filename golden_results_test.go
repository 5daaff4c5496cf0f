package hotpotato

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// goldenResultSpecs is the fixed spec set behind testdata/golden_results.json:
// HotPotato on 4×4 and 8×8 (homogeneous full load and random mixes, sensor
// noise on), HotPotatoDVFS, and one τ-bounds override. Every run goes through
// Algorithm 1's ring scan on every decision, so a change to how the scan is
// computed that moves any decision moves a hash.
func goldenResultSpecs() map[string]RunSpec {
	noisy := func(seed int64) SimConfig {
		c := DefaultSimConfig()
		c.SensorNoiseStdDev = 0.1
		c.SensorNoiseSeed = seed
		return c
	}
	grid := func(n int) PlatformConfig { return DefaultPlatformConfig(n, n) }
	hp := SchedulerSpec{Name: "hotpotato"}
	return map[string]RunSpec{
		"hotpotato-4x4-full": {
			Platform: grid(4), Sim: noisy(1), Scheduler: hp,
			Workload: WorkloadSpec{Kind: WorkloadHomogeneous, Bench: "swaptions"},
		},
		"hotpotato-4x4-mix": {
			Platform: grid(4), Sim: noisy(2), Scheduler: hp,
			Workload: WorkloadSpec{Kind: WorkloadRandom, Count: 8, Rate: 40, Seed: 3},
		},
		"hotpotato-8x8-full": {
			Platform: grid(8), Sim: noisy(3), Scheduler: hp,
			Workload: WorkloadSpec{Kind: WorkloadHomogeneous, Bench: "blackscholes"},
		},
		"hotpotato-8x8-mix": {
			Platform: grid(8), Sim: noisy(4), Scheduler: hp,
			Workload: WorkloadSpec{Kind: WorkloadRandom, Count: 8, Rate: 80, Seed: 5},
		},
		"hotpotato-dvfs-4x4-full": {
			Platform: grid(4), Sim: noisy(5), Scheduler: SchedulerSpec{Name: "hotpotato-dvfs"},
			Workload: WorkloadSpec{Kind: WorkloadHomogeneous, Bench: "canneal"},
		},
		"hotpotato-8x8-mix20": {
			Platform: grid(8), Sim: noisy(7), Scheduler: hp,
			Workload: WorkloadSpec{Kind: WorkloadRandom, Count: 20, Rate: 20, Seed: 11},
		},
		"hotpotato-dvfs-8x8-full": {
			Platform: grid(8), Sim: noisy(8), Scheduler: SchedulerSpec{Name: "hotpotato-dvfs"},
			Workload: WorkloadSpec{Kind: WorkloadHomogeneous, Bench: "swaptions"},
		},
		"hotpotato-8x8-tau-bounds": {
			Platform: grid(8), Sim: noisy(9),
			Scheduler: SchedulerSpec{Name: "hotpotato", TauMin: 0.25e-3, TauMax: 2e-3},
			Workload:  WorkloadSpec{Kind: WorkloadHomogeneous, Bench: "bodytrack"},
		},
		"hotpotato-4x4-tau-bounds": {
			Platform: grid(4), Sim: noisy(6),
			Scheduler: SchedulerSpec{Name: "hotpotato", TauMin: 0.25e-3, TauMax: 1e-3},
			Workload:  WorkloadSpec{Kind: WorkloadRandom, Count: 6, Rate: 60, Seed: 7},
		},
	}
}

// resultHash is the SHA-256 of a Result's JSON with the host-time field
// zeroed — the bit-identity fingerprint of a run.
func resultHash(res *Result) (string, error) {
	r := *res
	r.SchedulerHostTime = 0
	b, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// TestGoldenResults recomputes every golden spec and compares the hash of
// its Result with the committed one: any change to scheduling decisions, the
// thermal numerics or the workload model shows up as a changed hash.
func TestGoldenResults(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	specs := goldenResultSpecs()
	if len(want) != len(specs) {
		t.Errorf("golden file has %d hashes, spec set has %d", len(want), len(specs))
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			res, err := ExecuteSpec(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := resultHash(res)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[name] {
				t.Errorf("result hash %s, golden %q", got, want[name])
			}
		})
	}
}
