package rotation

import (
	"fmt"
	"math"
	"slices"
)

// Response tables: Algorithm 1 for a ring schedule without the period walk.
//
// The thermal model is linear and time-invariant, so a ring schedule's core
// temperatures at epoch boundaries split into the steady state of the
// constant background plus one periodic response per ring slot. Let G[e][c]
// be core c's periodic-steady-state rise at the end of epoch e when one watt
// walks the ring (on ringCores[e mod s] during epoch e). Slot i runs the same
// walk i epochs ahead, so
//
//	T_c(e) = ambient + bg_c + Σ_i slotWatts[i]·G[(e+i) mod s][c],
//
// where bg is the steady state of base with the ring's own cores zeroed,
// read off the n×n core block of B⁻¹. G depends only on the ring and τ: one
// eigenbasis period walk builds it, and the evaluator caches it. A ring
// evaluation then costs O(s·n + s²·n) instead of PeakRingRotation's
// O(n·N + s²·N + s·n·N). The re-association moves the peak by round-off
// only (≲1e-11 K on the default chips); RingBelow turns that into exact
// decisions with a margin and a fallback (docs/THEORY.md §4).

// TableMargin is the distance (K) from a decision threshold within which
// RingBelow does not trust the response-table peak and re-evaluates the
// ring with PeakRingRotation. It sits five orders of magnitude above the
// largest table-versus-exact difference measured on the default chips.
const TableMargin = 1e-6

// maxTableFloats bounds the evaluator's response-table cache (4 MiB). The
// tables of every ring of the default 8×8 chip across HotPotato's whole τ
// ladder take under 0.2 MiB.
const maxTableFloats = 1 << 19

// ringTable is the periodic response G of one ring at one τ.
type ringTable struct {
	tau   float64
	cores []int     // the ring, in walk order (a private copy)
	g     []float64 // s×n, row e = core rises at the end of epoch e, K/W
}

// RingBelow reports whether the ring schedule's steady-periodic peak stays
// strictly below limit (°C) — PeakRingRotation(tau, base, ringCores,
// slotWatts) < limit — for the same inputs. It decides from the response
// table when the table peak lies more than TableMargin from limit, and from
// PeakRingRotation otherwise, so its verdict is the exact evaluation's
// whenever the two peaks differ by less than TableMargin. Against a
// sparse-mode model it is PeakRingRotation's verdict. Allocation-free once
// the ring's table at this τ is cached.
func (e *RingEvaluator) RingBelow(tau float64, base []float64, ringCores []int, slotWatts []float64, limit float64) (bool, error) {
	if e.wT != nil {
		if err := e.checkRing(tau, base, ringCores, slotWatts); err != nil {
			return false, err
		}
		peak, err := e.tablePeak(tau, base, ringCores, slotWatts)
		if err != nil {
			return false, err
		}
		if math.Abs(peak-limit) > TableMargin {
			metricEvals.Inc()
			return peak < limit, nil
		}
	}
	// PeakRingRotation counts the verdict when the table did not decide it.
	peak, err := e.PeakRingRotation(tau, base, ringCores, slotWatts)
	if err != nil {
		return false, err
	}
	return peak < limit, nil
}

// TablePeakRingRotation returns PeakRingRotation's peak (°C) for the same
// inputs, computed from the ring's response table at τ; the two differ by
// round-off only. The table is built on first use of a (ring, τ) pair and
// cached in the evaluator. Against a sparse-mode model it is
// PeakRingRotation.
func (e *RingEvaluator) TablePeakRingRotation(tau float64, base []float64, ringCores []int, slotWatts []float64) (float64, error) {
	if err := e.checkRing(tau, base, ringCores, slotWatts); err != nil {
		return 0, err
	}
	if e.wT == nil {
		return e.PeakRingRotation(tau, base, ringCores, slotWatts)
	}
	peak, err := e.tablePeak(tau, base, ringCores, slotWatts)
	if err != nil {
		return 0, err
	}
	metricEvals.Inc()
	return peak, nil
}

// tablePeak is TablePeakRingRotation for checked inputs against a dense
// model, without counting the evaluation.
func (e *RingEvaluator) tablePeak(tau float64, base []float64, ringCores []int, slotWatts []float64) (float64, error) {
	g, err := e.table(tau, ringCores)
	if err != nil {
		return 0, err
	}
	n := e.c.n
	size := len(ringCores)

	// Background: B⁻¹_cc·base (memoized per base vector), minus the ring's
	// own cores, whose power the slots replace.
	e.background(base)
	bg := e.bg
	copy(bg, e.bgFull)
	for _, core := range ringCores {
		w := base[core]
		if w == 0 {
			continue
		}
		col := e.binvT.RowView(core)
		for c := range bg {
			bg[c] -= w * col[c]
		}
	}

	peak := math.Inf(-1)
	acc := e.coreT
	for ep := 0; ep < size; ep++ {
		copy(acc, bg)
		for i, w := range slotWatts {
			if w == 0 {
				continue
			}
			row := g[((ep+i)%size)*n : ((ep+i)%size+1)*n]
			for c, v := range row {
				acc[c] += w * v
			}
		}
		for _, t := range acc {
			if t > peak {
				peak = t
			}
		}
	}
	return peak + e.c.m.Ambient(), nil
}

// background makes bgFull the core steady state of base (K above ambient),
// recomputing it only when base differs from the vector it was last
// computed for — the rings of one scheduling verdict share one base.
func (e *RingEvaluator) background(base []float64) {
	if e.bgValid && slices.Equal(e.bgBase, base) {
		return
	}
	copy(e.bgBase, base)
	full := e.bgFull
	for c := range full {
		full[c] = 0
	}
	for j, w := range base {
		if w == 0 {
			continue
		}
		col := e.binvT.RowView(j)
		for c := range full {
			full[c] += w * col[c]
		}
	}
	e.bgValid = true
}

// table returns the cached response table of the ring at τ, building it
// with one eigenbasis period walk on a miss. The cache evicts its oldest
// tables once it holds maxTableFloats.
func (e *RingEvaluator) table(tau float64, ringCores []int) ([]float64, error) {
	for i := range e.tables {
		t := &e.tables[i]
		if t.tau == tau && slices.Equal(t.cores, ringCores) {
			return t.g, nil
		}
	}
	c := e.c
	n, N := c.n, c.nNodes
	size := len(ringCores)

	decay := e.decay
	for k, l := range c.lambda {
		decay[k] = math.Exp(-l * tau)
	}
	// One watt on ringCores[ep] during epoch ep: its eigenspace image is
	// row ringCores[ep] of wT. Horner-accumulate the periodic forcing and
	// solve for the start-of-period fixed point, as PeakRingRotation does.
	z := e.z
	for k := range z {
		z[k] = 0
	}
	for _, core := range ringCores {
		row := e.wT.RowView(core)
		for k := 0; k < N; k++ {
			z[k] = decay[k]*z[k] + (1-decay[k])*row[k]
		}
	}
	u := e.u
	for k := 0; k < N; k++ {
		denom := 1 - math.Exp(-c.lambda[k]*tau*float64(size))
		if denom <= 0 {
			return nil, fmt.Errorf("rotation: non-decaying eigenmode %d", k)
		}
		u[k] = z[k] / denom
	}
	g := make([]float64, size*n)
	for ep, core := range ringCores {
		row := e.wT.RowView(core)
		for k := 0; k < N; k++ {
			u[k] = decay[k]*u[k] + (1-decay[k])*row[k]
		}
		e.vCore.MulVecTo(g[ep*n:(ep+1)*n], u)
	}

	for len(e.tables) > 0 && e.tableFloats+len(g) > maxTableFloats {
		e.tableFloats -= len(e.tables[0].g)
		e.tables = append(e.tables[:0], e.tables[1:]...)
	}
	e.tables = append(e.tables, ringTable{tau: tau, cores: append([]int(nil), ringCores...), g: g})
	e.tableFloats += len(g)
	return g, nil
}
