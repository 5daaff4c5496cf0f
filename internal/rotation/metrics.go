package rotation

import "repro/internal/obs"

// metricEvals counts Algorithm-1 analytic evaluations (general Evaluate, the
// allocation-free ring period walk, and response-table ring evaluations).
// A RingBelow verdict counts once, whichever path decides it. A single
// atomic increment keeps the ring scan's zero-allocation regression test
// honest.
var metricEvals = obs.NewCounter("rotation_alg1_evals_total",
	"Algorithm-1 analytic peak-temperature evaluations (Evaluate, PeakRingRotation, response-table ring evaluations; one per RingBelow verdict).")
