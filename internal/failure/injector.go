// Package failure injects process failures into a running MPI world, the
// way the paper's evaluation does: a single process killed at a chosen
// point (e.g. "one failed process at the reduce phase", §6.3), or
// continuous failures ("randomly terminating one process every 5 seconds",
// §6.4).
package failure

import (
	"math/rand"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/storage"
)

// countInjected bumps the world-scoped injected-failure counter for one
// fault kind ("kill", "slow"). Family getters are idempotent, so binding at
// the injection site keeps the injectors registry-optional.
func countInjected(reg *metrics.Registry, kind string) {
	if reg == nil {
		return
	}
	reg.CounterL("ftmr_failures_injected",
		"Process-level faults injected, by kind.", "kind", kind).Inc()
}

// inject records the injector's decision on the world trace track (if
// tracing is on) and fires the kill.
func inject(w *mpi.World, rank int) {
	w.Clus.Trace.Global().FailureInject(rank)
	countInjected(w.Clus.Metrics, "kill")
	w.Kill(rank)
}

// KillAt kills a world rank at an absolute virtual time.
func KillAt(w *mpi.World, rank int, at time.Duration) {
	d := at - w.Sim.Now()
	if d < 0 {
		d = 0
	}
	w.Sim.After(d, func() { inject(w, rank) })
}

// SlowRank turns a world rank into a straggler at an absolute virtual time:
// from `at` on, the rank's compute charges stretch by factor (thermal
// throttling, a failing DIMM, a noisy neighbour). The rank stays alive and
// produces correct output — it is only slower, which is exactly the case
// the trace-driven load balancer must price and the static §3.4 fit
// averages away. factor <= 1 restores normal speed.
func SlowRank(w *mpi.World, rank int, factor float64, at time.Duration) {
	d := at - w.Sim.Now()
	if d < 0 {
		d = 0
	}
	w.Sim.After(d, func() {
		r := w.Rank(rank)
		if r == nil || !r.Alive() {
			return
		}
		w.Clus.Trace.Global().SlowRank(rank, factor)
		countInjected(w.Clus.Metrics, "slow")
		r.SetComputeScale(factor)
	})
}

// KillOnPhase kills a world rank the first time it enters the given phase,
// after an optional extra delay.
func KillOnPhase(h *core.Handle, rank int, ph core.Phase, delay time.Duration) {
	fired := false
	h.OnPhase(func(worldRank int, p core.Phase) {
		if fired || worldRank != rank || p != ph {
			return
		}
		fired = true
		h.Clus.Sim.After(delay, func() { inject(h.World, rank) })
	})
}

// KillDuringRecovery arms a one-shot kill that fires the first time any rank
// reports entering the recovery phase: after delay (keep it within the
// shrink/agree window, i.e. tens of microseconds), a second rank is killed — so
// recovery itself must be recovered. The victim is the highest-numbered
// alive rank other than the reporting one, and never the last one alive.
func KillDuringRecovery(h *core.Handle, delay time.Duration) {
	armed := false
	h.OnPhase(func(worldRank int, ph core.Phase) {
		if armed || ph != core.PhaseRecovery {
			return
		}
		armed = true
		h.Clus.Sim.After(delay, func() {
			alive := h.World.AliveRanks()
			for i := len(alive) - 1; i >= 0 && len(alive) > 1; i-- {
				if alive[i] != worldRank {
					inject(h.World, alive[i])
					return
				}
			}
		})
	})
}

// Chaos arms a randomized failure schedule: maxKills kills at uniform random
// virtual times in (0, window], each victim drawn from the alive set at fire
// time, plus one extra kill aimed inside the first recovery window (so
// overlapping failures are the common case, not a lucky coincidence). Runs
// with the same seed on the same workload are identical.
func Chaos(h *core.Handle, seed int64, maxKills int, window time.Duration) {
	if window <= 0 || maxKills <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < maxKills; i++ {
		at := time.Duration(rng.Int63n(int64(window))) + 1
		h.Clus.Sim.After(at, func() {
			alive := h.World.AliveRanks()
			if len(alive) <= 1 {
				return
			}
			inject(h.World, alive[rng.Intn(len(alive))])
		})
	}
	KillDuringRecovery(h, time.Duration(rng.Int63n(int64(40*time.Microsecond)))+10*time.Microsecond)
}

// StorageFaults attaches seeded storage fault injectors (the chaos policy:
// torn writes, bit flips, and transient read errors on checkpoint data, torn
// writes on outputs, transient read errors on inputs) to the cluster's PFS
// and every node-local tier. Each tier gets a distinct stream derived from
// seed so faults do not correlate across tiers.
func StorageFaults(clus *cluster.Cluster, seed int64) {
	clus.PFS.Faults = storage.NewInjector(storage.ChaosPolicy(seed))
	clus.PFS.Faults.BindMetrics(clus.Metrics, clus.PFS.Name)
	for i, n := range clus.Nodes {
		n.Local.Faults = storage.NewInjector(storage.ChaosPolicy(seed + 1 + int64(i)))
		n.Local.Faults.BindMetrics(clus.Metrics, n.Local.Name)
	}
}

// PFSOutage schedules one whole-PFS outage window [begin, end): every
// charged PFS operation — and Peek — inside the window fails with
// storage.ErrTierOutage, modeling the file system going fully offline (a
// failed metadata server, a fabric partition). If the PFS has no fault
// injector yet, a rule-free one is attached, so the outage composes with or
// without StorageFaults — and never perturbs its seeded per-path fault
// sequences (outage checks don't touch the injector RNG).
func PFSOutage(clus *cluster.Cluster, begin, end time.Duration) {
	if end <= begin {
		return
	}
	if clus.PFS.Faults == nil {
		clus.PFS.Faults = storage.NewInjector(storage.FaultPolicy{})
		clus.PFS.Faults.BindMetrics(clus.Metrics, clus.PFS.Name)
	}
	clus.PFS.Faults.AddOutage(storage.OutageWindow{Begin: begin, End: end})
	countInjected(clus.Metrics, "outage")
}

// Continuous kills one live rank every interval, starting after the first
// interval, until maxKills processes have been killed (or only one rank
// remains). pick draws the victim's index among the n ranks then alive; a
// seeded generator's Intn makes runs reproducible.
func Continuous(w *mpi.World, interval time.Duration, maxKills int, pick func(n int) int) {
	killed := 0
	var tick func()
	tick = func() {
		if killed >= maxKills {
			return
		}
		alive := w.AliveRanks()
		if len(alive) <= 1 {
			return
		}
		inject(w, alive[pick(len(alive))])
		killed++
		if killed < maxKills {
			w.Sim.After(interval, tick)
		}
	}
	w.Sim.After(interval, tick)
}
