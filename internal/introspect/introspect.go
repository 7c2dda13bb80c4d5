// Package introspect is the live introspection plane: deterministic,
// virtual-time-cadenced snapshots of per-rank wait state, and a wait-for
// graph whose cycle, once the run has drained, is its deadlock report.
//
// Every other observability surface in this repository (trace JSONL, metrics
// snapshots, critical-path attribution) is post-mortem; this package works
// while the run is alive. It exploits two properties of the simulator: the
// scheduler's fn-callbacks are a natural serialization point (exactly zero
// simulated processes run while one executes — the safe-point guarantee
// DESIGN.md §"Introspection plane" documents), and the MPI layer holds an
// exact account of who is parked in what — each mailbox its one parked
// receive, each rendezvous its entrants. The plane reads that account rather
// than keeping a copy, so it never samples racy intermediate state: a capture
// sees every rank either parked or runnable-at-now, with its receive,
// meeting, phase, and drain annotations consistent.
//
// The package deliberately imports only internal/vtime, the internal/jsonl
// codec and the standard library so that internal/mpi, internal/cluster, and
// internal/core can all depend on it without cycles; the MPI layer plugs in
// through the narrow WorldView interface.
package introspect

import (
	"slices"
	"time"

	"ftmrmpi/internal/jsonl"
	"ftmrmpi/internal/vtime"
)

// Rank states reported in snapshots. Precedence when several apply: dead,
// then collective or recv (what the MPI layer says the rank is parked in),
// then drain, then timer / runnable, then parked.
const (
	// StateRunning marks a rank that is runnable at the capture instant
	// (it has a pending wake at the current virtual time).
	StateRunning = "running"
	// StateRecv marks a rank blocked in a posted receive.
	StateRecv = "recv"
	// StateTimer marks a rank sleeping on a scheduler timer (compute,
	// wire-time, or an explicit sleep).
	StateTimer = "timer"
	// StateColl marks a rank inside a meeting: a collective, Shrink or
	// Agree.
	StateColl = "collective"
	// StateDrain marks a rank parked in a checkpoint drain barrier waiting
	// for its copier.
	StateDrain = "ckpt-drain"
	// StateParked marks a rank parked awaiting an explicit wake that the
	// plane cannot attribute further (resource queues, outage windows — see
	// Snapshot.Outages for the latter).
	StateParked = "parked"
	// StateDead marks a failed or exited rank.
	StateDead = "dead"
)

// NoValue is the sentinel RankState uses for integer fields that do not
// apply to the rank's current state (Src, Tag, Comm, Seq, Task).
const NoValue = -2

// Wait is what a rank is parked in, as the MPI layer reads it from its own
// state: a receive in one of its mailboxes when Op is "", otherwise a
// meeting — a collective, Shrink or Agree. All ranks are world ranks.
type Wait struct {
	// Op is the meeting's operation name, "" for a receive.
	Op string
	// Comm is the communicator id the receive was posted or the meeting
	// entered on.
	Comm int
	// Seq is the collective's sequence number on Comm, or NoValue (a
	// receive, Shrink, Agree).
	Seq int
	// Src and Tag are the receive's posted source and tag, NoValue in a
	// meeting.
	Src, Tag int
	// Since is when the receive was posted or the meeting entered.
	Since time.Duration
	// Missing lists, while the meeting is still gathering, the live group
	// members not inside it, ascending: the ranks this one waits for.
	Missing []int
}

// WorldView is the narrow read-only surface the plane reads from the MPI
// layer at each capture. *mpi.World implements it.
type WorldView interface {
	// Size returns the world size.
	Size() int
	// RankAlive reports whether the world rank has not failed.
	RankAlive(worldRank int) bool
	// RankProc returns the world rank's simulated process (nil before
	// launch).
	RankProc(worldRank int) *vtime.Proc
	// RankWait reports what the world rank is parked in, if anything.
	RankWait(worldRank int) (Wait, bool)
}

// Outage describes one storage tier that is inside a fault-injected outage
// window at capture time. Ranks parked against the tier surface as
// StateParked; the snapshot-level outage list supplies the why.
type Outage struct {
	// Tier is the tier name ("pfs", "local-n3", ...).
	Tier string `json:"tier"`
	// UntilUS is the virtual time the window ends, in microseconds.
	UntilUS float64 `json:"until_us"`
}

// RankProbe is one rank's annotation cell: the task runner records the facts
// only it holds — the phase, the task and a checkpoint drain — so captures
// can label wait states. A nil probe is the disabled plane; every method is a
// nil-receiver no-op, holding the disabled path to one branch per
// instrumentation point (the same discipline as the trace recorder and
// metrics instruments, enforced by the overhead gate).
//
// Probes are only mutated and read from simulated-process or scheduler
// context, which the simulator serializes; they need no locks.
type RankProbe struct {
	phase string
	task  int
	drain bool
}

// SetPhase records the runner phase the rank is executing ("" between jobs).
func (rp *RankProbe) SetPhase(phase string) {
	if rp == nil {
		return
	}
	rp.phase = phase
}

// SetTask records the task id the rank is working on (NoValue when none).
func (rp *RankProbe) SetTask(id int) {
	if rp == nil {
		return
	}
	rp.task = id
}

// EnterDrain records entry into a checkpoint drain barrier.
func (rp *RankProbe) EnterDrain() {
	if rp == nil {
		return
	}
	rp.drain = true
}

// ExitDrain records leaving the checkpoint drain barrier.
func (rp *RankProbe) ExitDrain() {
	if rp == nil {
		return
	}
	rp.drain = false
}

// Plane is the introspection plane for one simulation. Create it with New
// before ranks are launched (probes bind at spawn time, like the metrics
// instruments), then Start arms the capture cadence. A nil *Plane disables
// everything at one-branch cost. A plane is single-threaded, as the
// simulation it observes is: it is read and written only by scheduler
// callbacks and by the goroutine that calls Sim.Run, before and after it.
type Plane struct {
	sim      *vtime.Sim
	interval time.Duration

	probes []*RankProbe
	// world is the world captured: the most recently attached one.
	world WorldView
	// Outages, when set, reports the storage tiers inside an outage window
	// at the given virtual time. The plane cannot import internal/storage,
	// so the cluster's owner sets it to cluster.Cluster.Outages.
	Outages func(now time.Duration) []Outage

	// journal is every record in capture order (a stall report right after
	// the Final snapshot that raised it), the one list of them: Snapshots,
	// Stalls and WriteJSONL all read it.
	journal []Line
	stream  *jsonl.Writer
	// seq is the number of snapshots captured so far: the next one's Seq.
	seq int
}

// New creates a plane on sim capturing every interval of virtual time.
// interval <= 0 selects the default 100ms cadence.
func New(sim *vtime.Sim, interval time.Duration) *Plane {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &Plane{sim: sim, interval: interval}
}

// RankProbe returns (allocating on first use) the annotation cell for a
// world rank. On a nil plane it returns nil, which every probe method and
// binding site accepts.
func (pl *Plane) RankProbe(worldRank int) *RankProbe {
	if pl == nil {
		return nil
	}
	for len(pl.probes) <= worldRank {
		pl.probes = append(pl.probes, nil)
	}
	if pl.probes[worldRank] == nil {
		pl.probes[worldRank] = &RankProbe{task: NoValue}
	}
	return pl.probes[worldRank]
}

// AttachWorld registers a world for capture. Launch calls it; the most
// recently attached world is the one captured (restarted jobs attach their
// fresh world). No-op on a nil plane.
func (pl *Plane) AttachWorld(v WorldView) {
	if pl == nil {
		return
	}
	pl.world = v
}

// Start arms the capture cadence: the observer ticker (vtime.Sim.Every) that
// captures a snapshot every interval of virtual time for as long as the
// simulation has other work (so it neither keeps the simulation alive nor
// moves its clock past the last event it observes). No-op on a nil plane.
func (pl *Plane) Start() {
	if pl == nil {
		return
	}
	pl.sim.Every(pl.interval, func() { pl.capture(false) })
}

// Final captures one post-run snapshot and reports a deadlock: call it after
// Sim.Run returns. It is the one capture that looks for a cycle, and the one
// instant at which a cycle is exact. Every event source but the observer's
// tick is finite, so a deadlocked run drains with its ranks still parked;
// with the event heap empty nothing is in flight, and nothing scheduled can
// break a cycle any more, so every edge is a true completion wait. A live
// capture cannot know that a later kill will not break the cycle it sees.
// No-op on a nil plane.
func (pl *Plane) Final() {
	if pl == nil {
		return
	}
	pl.capture(true)
}

// Snapshots returns every captured snapshot in capture order.
func (pl *Plane) Snapshots() []Snapshot {
	if pl == nil {
		return nil
	}
	snaps, _ := SplitLines(pl.journal)
	return snaps
}

// Stalls returns every stall report raised so far: the deadlock cycle Final
// found, if any.
func (pl *Plane) Stalls() []StallReport {
	if pl == nil {
		return nil
	}
	_, stalls := SplitLines(pl.journal)
	return stalls
}

// capture runs at a safe point: it derives every rank's state from the
// world's read of what the rank is parked in and from its probe, draws the
// wait-for graph by graph.go's one rule (an entrant of a gathering meeting
// waits for each member the world names as missing) as wait sets, and
// journals and streams the snapshot; the final one also the deadlock report
// of the cycle it finds, if any.
func (pl *Plane) capture(final bool) {
	v := pl.world
	if v == nil {
		return
	}
	now := pl.sim.Now()
	snap := &Snapshot{Kind: lineSnapshot, VTus: vtUS(now), Seq: pl.seq}
	pl.seq++
	timers := pl.sim.TimerInventory()

	n := v.Size()
	snap.Ranks = make([]RankState, 0, n)
	for w := 0; w < n; w++ {
		rs := RankState{Rank: w, Src: NoValue, Tag: NoValue, Comm: NoValue,
			Seq: NoValue, Task: NoValue, PostedUS: -1}
		proc := v.RankProc(w)
		var probe *RankProbe
		if w < len(pl.probes) {
			probe = pl.probes[w]
		}
		if probe != nil {
			rs.Phase, rs.Task = probe.phase, probe.task
		}
		wt, waiting := v.RankWait(w)
		fireAt, hasTimer := 0*time.Second, false
		if proc != nil {
			fireAt, hasTimer = timers[proc.ID()]
		}
		switch {
		case !v.RankAlive(w) || proc == nil || proc.Dead():
			rs.State = StateDead
		case waiting:
			rs.State = StateRecv
			if wt.Op != "" {
				rs.State = StateColl
			}
			rs.Op, rs.Comm, rs.Seq, rs.Src, rs.Tag = wt.Op, wt.Comm, wt.Seq, wt.Src, wt.Tag
			rs.PostedUS = vtUS(wt.Since)
			if len(wt.Missing) > 0 {
				snap.Waits = joinWaits(snap.Waits, w, wt.Missing)
			}
		case probe != nil && probe.drain:
			rs.State = StateDrain
		case hasTimer && fireAt > now:
			rs.State = StateTimer
			rs.PostedUS = vtUS(fireAt)
		case hasTimer:
			rs.State = StateRunning // wake already pending at now
		case proc.Parked():
			rs.State = StateParked
		default:
			rs.State = StateRunning
		}
		snap.Ranks = append(snap.Ranks, rs)
	}

	if pl.Outages != nil {
		snap.Outages = pl.Outages(now)
	}

	pl.journal = append(pl.journal, Line{Snapshot: snap})
	if pl.stream != nil {
		pl.stream.Write(*snap)
	}
	if !final {
		return
	}
	if cycle := findCycle(n, snap.Waits); cycle != nil {
		report := cycleReport(snap, cycle)
		pl.journal = append(pl.journal, Line{Stall: &report})
		if pl.stream != nil {
			pl.stream.Write(report)
		}
	}
}

// joinWaits adds rank to the set that waits for exactly to, opening one if
// none does. Entrants of one gathering meeting share its missing list, and
// ranks with equal lists have equal out-edges, so merging them is exact.
func joinWaits(sets []WaitSet, rank int, to []int) []WaitSet {
	for i := range sets {
		if slices.Equal(sets[i].To, to) {
			sets[i].From = append(sets[i].From, rank)
			return sets
		}
	}
	return append(sets, WaitSet{From: []int{rank}, To: to})
}

// cycleReport builds the structured stall report for a detected cycle:
// members in cycle order, each with its wait reason, plus the oldest
// blocked-since virtual time among them.
func cycleReport(snap *Snapshot, cycle []int) StallReport {
	rep := StallReport{
		Kind:     lineStall,
		VTus:     snap.VTus,
		Reason:   ReasonDeadlock,
		Cycle:    cycle,
		OldestUS: -1,
	}
	for _, w := range cycle {
		rs := &snap.Ranks[w]
		rep.Members = append(rep.Members, StallMember{Rank: w, Reason: waitReason(rs)})
		if rs.PostedUS >= 0 && (rep.OldestUS < 0 || rs.PostedUS < rep.OldestUS) {
			rep.OldestUS = rs.PostedUS
		}
	}
	return rep
}

// vtUS converts a virtual time to microseconds (the trace wire format's
// unit).
func vtUS(d time.Duration) float64 { return float64(d) / 1e3 }
