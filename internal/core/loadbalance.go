package core

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Load balancer (paper §3.4): an agent on every process observes the input
// size and processing time of each completed task, fits the linear model
//
//	t_ij = a_j + b_j·D_i + ε_j
//
// by least squares, and at recovery time the redistributed workload of the
// failed processes is divided so that every surviving process is predicted
// to finish at the same time.
//
// Two model kinds share that machinery:
//
//   - LBStatic is the paper's model verbatim: ordinary least squares over
//     the whole observation history, features = input size only.
//   - LBTrace feeds the tracer's signal back in: observations carry their
//     virtual timestamp and the fit is recency-weighted (a straggler that
//     turned slow mid-run dominates the estimate instead of being averaged
//     away), the slope is inflated by measured checkpoint-drain stalls, and
//     each survivor publishes a Debt term — the predicted seconds of
//     partition work (convert/reduce) it still owes — so redistribution
//     prices a rank's whole future, not just its map backlog.

// LBModelKind selects the regression model behind Spec.LoadBalance.
type LBModelKind int

const (
	// LBStatic is the §3.4 whole-history OLS fit over input size.
	LBStatic LBModelKind = iota
	// LBTrace is the trace-driven fit: recency-weighted observations,
	// checkpoint-stall inflation, and a published pending-work debt.
	LBTrace
)

// String names the balancer model for the -lb-model flag.
func (k LBModelKind) String() string {
	if k == LBTrace {
		return "trace"
	}
	return "static"
}

// ParseLBModel parses the -lb-model flag value.
func ParseLBModel(s string) (LBModelKind, error) {
	switch s {
	case "", "static":
		return LBStatic, nil
	case "trace":
		return LBTrace, nil
	}
	return 0, fmt.Errorf("unknown lb model %q (static|trace)", s)
}

// lbWindow is how many recent observations the trace fit considers. The
// static fit always uses the full history.
const lbWindow = 32

// observation is one (input size, duration) sample, stamped with the
// virtual time it completed (used only by the trace model).
type observation struct {
	bytes float64
	secs  float64
	vt    time.Duration
}

// lbAgent accumulates observations and fits the per-process model.
type lbAgent struct {
	kind LBModelKind
	obs  []observation

	// Trace-model accumulators. stall is checkpoint drain time measured
	// outside task spans (phase-end copier sync); taskSecs is the total
	// observed task time it is compared against.
	stall    time.Duration
	taskSecs float64
}

func (a *lbAgent) observe(bytes int, secs float64, vt time.Duration) {
	a.obs = append(a.obs, observation{bytes: float64(bytes), secs: secs, vt: vt})
	a.taskSecs += secs
}

// noteStall records checkpoint-drain wait incurred at a phase boundary
// (outside any task observation). Recorded unconditionally; only the trace
// fit reads it.
func (a *lbAgent) noteStall(d time.Duration) {
	if d > 0 {
		a.stall += d
	}
}

// fit returns (a, b) of t = a + b·D by ordinary least squares. With fewer
// than two distinct samples it falls back to a pure rate estimate; with no
// samples it returns a neutral model.
func (a *lbAgent) fit() (intercept, slope float64) {
	var sx, sy, sxx, sxy float64
	for _, o := range a.obs {
		sx += o.bytes
		sy += o.secs
		sxx += o.bytes * o.bytes
		sxy += o.bytes * o.secs
	}
	return solveLine(float64(len(a.obs)), sx, sy, sxx, sxy)
}

// solveLine solves the (weighted) least-squares normal equations for
// t = a + b·D from the weight total sw and the weighted moments.
func solveLine(sw, sx, sy, sxx, sxy float64) (intercept, slope float64) {
	den := sw*sxx - sx*sx
	if den <= 1e-12 || sw <= 0 {
		// No samples, or all the same size: rate through the origin.
		if sx > 0 {
			return 0, sy / sx
		}
		return 0, 1e-9
	}
	slope = (sw*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / sw
	if slope <= 0 {
		slope = math.Max(1e-12, sy/math.Max(sx, 1))
		intercept = 0
	}
	return intercept, slope
}

// fitTrace returns (a, b) of t = a + b·D by weighted least squares over the
// last lbWindow observations, with exponential recency decay in virtual
// time: an observation's weight halves every (window span)/8. Time-based
// decay is the point — a straggler completes few tasks after slowing down,
// but those few cover most of the recent timeline, so they dominate the fit
// even when count-based windows would still be full of fast pre-onset
// samples. The slope is then inflated by the measured checkpoint-stall
// fraction (drain waits at phase boundaries are real per-byte cost the task
// spans never see). With fewer than two observations there is nothing to
// weight; fall back to the static fit's degenerate handling.
func (a *lbAgent) fitTrace(now time.Duration) (intercept, slope float64) {
	if len(a.obs) < 2 {
		return a.fit()
	}
	win := a.obs
	if len(win) > lbWindow {
		win = win[len(win)-lbWindow:]
	}
	span := now - win[0].vt
	halflife := span / 8
	if halflife < time.Microsecond {
		halflife = time.Microsecond
	}
	var sw, sx, sy, sxx, sxy float64
	for _, o := range win {
		age := float64(now-o.vt) / float64(halflife)
		w := math.Exp2(-age)
		sw += w
		sx += w * o.bytes
		sy += w * o.secs
		sxx += w * o.bytes * o.bytes
		sxy += w * o.bytes * o.secs
	}
	intercept, slope = solveLine(sw, sx, sy, sxx, sxy)
	// Checkpoint drain stalls scale with bytes processed but land at phase
	// boundaries, outside task spans; fold them into the per-byte rate
	// (capped at doubling — a pathological drain history shouldn't zero a
	// rank's capacity).
	if a.taskSecs > 0 && a.stall > 0 {
		frac := math.Min(a.stall.Seconds()/a.taskSecs, 1)
		slope *= 1 + frac
	}
	return intercept, slope
}

// residualRMS returns the root-mean-square residual of the model (a, b)
// over the agent's full observation history, or 0 with no observations —
// a live gauge of how well the linear fit explains observed task times.
func (a *lbAgent) residualRMS(intercept, slope float64) float64 {
	if len(a.obs) == 0 {
		return 0
	}
	var ss float64
	for _, o := range a.obs {
		r := o.secs - (intercept + slope*o.bytes)
		ss += r * r
	}
	return math.Sqrt(ss / float64(len(a.obs)))
}

// lbModel is one survivor's published model and backlog, exchanged during
// recovery.
type lbModel struct {
	Rank      int // world rank
	Intercept float64
	Slope     float64 // seconds per byte
	Backlog   float64 // bytes of work it already has left
	// Debt is predicted seconds of additional committed work (pending
	// partition convert/reduce) not covered by Backlog. Always zero under
	// LBStatic, keeping that model's arithmetic bit-identical to the paper
	// version.
	Debt float64
}

// finish is the predicted completion time of a survivor's current load.
func (m lbModel) finish() float64 {
	return m.Intercept + m.Slope*m.Backlog + m.Debt
}

// balanceWork divides `units` (bytes of redistributed work, in indivisible
// pieces) among survivors so predicted completion times equalize: find t*
// with Σ_j max(0, (t* − f_j)/b_j) = total, where f_j is the survivor's
// predicted finish (intercept + slope·backlog + debt), then hand out
// pieces by largest remaining capacity. Returns, per survivor index, the
// piece ids assigned. Pieces are given as their sizes; the assignment
// preserves piece order within a survivor.
func balanceWork(models []lbModel, pieces []float64) [][]int {
	out := make([][]int, len(models))
	if len(models) == 0 || len(pieces) == 0 {
		return out
	}
	total := 0.0
	for _, p := range pieces {
		total += p
	}
	// Current predicted finish f_j; adding x bytes moves it to f_j + b_j·x.
	// Find the water level t* between the earliest finish and an upper
	// bound: the latest, plus everything dumped on the fastest process.
	finish := make([]float64, len(models))
	lo, hi := math.Inf(1), 0.0
	minSlope := math.Inf(1)
	for j, m := range models {
		f := m.finish()
		finish[j] = f
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
		if m.Slope < minSlope {
			minSlope = m.Slope
		}
	}
	hi += minSlope*total + 1
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		cap := 0.0
		for j, f := range finish {
			if mid > f {
				cap += (mid - f) / models[j].Slope
			}
		}
		// Once the midpoint is the bound it would replace, float64 has no
		// value left between lo and hi and no later iteration moves either.
		if cap < total {
			if lo == mid {
				break
			}
			lo = mid
		} else {
			if hi == mid {
				break
			}
			hi = mid
		}
	}
	level := hi
	// Per-survivor byte capacity at the water level.
	capacity := make([]float64, len(models))
	for j, f := range finish {
		if level > f {
			capacity[j] = (level - f) / models[j].Slope
		}
	}
	// Assign pieces largest-first to the survivor with the most remaining
	// capacity (deterministic tie-break by index).
	order := make([]int, len(pieces))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return pieces[order[x]] > pieces[order[y]] })
	remaining := append([]float64(nil), capacity...)
	for _, pi := range order {
		best := 0
		for j := 1; j < len(models); j++ {
			if remaining[j] > remaining[best] {
				best = j
			}
		}
		out[best] = append(out[best], pi)
		remaining[best] -= pieces[pi]
	}
	for j := range out {
		sort.Ints(out[j])
	}
	return out
}

// evenSplit assigns pieces round-robin (the non-load-balanced fallback).
func evenSplit(nSurvivors int, nPieces int) [][]int {
	out := make([][]int, nSurvivors)
	for i := 0; i < nPieces; i++ {
		out[i%nSurvivors] = append(out[i%nSurvivors], i)
	}
	return out
}
