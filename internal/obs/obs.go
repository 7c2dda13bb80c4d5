// Package obs is the instrumentation spine: the one per-rank handle through
// which internal/mpi and internal/core feed the three observation planes —
// the event tracer (internal/trace), the metrics registry (internal/metrics)
// and the introspection plane (internal/introspect).
//
// mpi.Launch builds one Handle per rank from the cluster's three plane
// fields; everything running on the rank reaches it through mpi.Rank.Obs().
// A plane that is off leaves its part of the handle nil, and every operation
// on a nil recorder, probe or instrument is a no-op — so the zero Handle is
// the all-planes-off handle, call sites never test for a plane, and a
// disabled site costs one branch per plane and no allocation (TestOverheadGate,
// the repo's single instrumentation-overhead gate).
//
// The handle is not a pass-through. An occurrence one plane consumes is
// stated against that plane (h.Rec.RecoveryStage, h.MPI.Sent, h.Probe.SetTask).
// It has a method exactly where two planes consume the same occurrence, so
// the occurrence is stated once and the planes cannot drift apart: a phase
// beginning (trace + introspection), and a collective, task commits,
// checkpoint stalls, recovery reads, load-balance fits, shadow syncs and
// failovers (trace + metrics).
package obs

import (
	"time"

	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/trace"
)

// Handle is one rank's view of the three observation planes. The zero Handle
// observes nothing.
type Handle struct {
	Rec   *trace.Recorder       // the rank's trace recorder; nil when tracing is off
	Probe *introspect.RankProbe // the rank's introspection annotation cell; nil when that plane is off
	MPI   MPIInstruments        // the MPI layer's instruments, bound by New
	Core  CoreInstruments       // the job runner's instruments, bound by BindCore
	FT    FTInstruments         // the replication model's instruments, bound by BindFT

	reg  *metrics.Registry
	rank int
}

// New builds the handle of world rank rank from the three planes, each of
// which may be nil (off). Never nil.
func New(tr *trace.Tracer, reg *metrics.Registry, pl *introspect.Plane, rank int) *Handle {
	return &Handle{Rec: tr.Rank(rank), Probe: pl.RankProbe(rank), MPI: bindMPI(reg, rank), reg: reg, rank: rank}
}

// CollSpan is one open collective, as returned by CollEnter.
type CollSpan struct {
	h         *Handle
	op        string
	comm, seq int
}

// CollEnter marks the rank entering collective op, the seq-th collective on
// communicator comm: the entry is counted and the tracer opens the stamped
// span. (The introspection plane reads who is inside from the rendezvous
// itself.) `defer h.CollEnter(op, comm, seq).Exit()` allocates nothing.
func (h *Handle) CollEnter(op string, comm, seq int) CollSpan {
	h.MPI.Colls.Inc()
	h.Rec.CollBeginN(op, comm, seq)
	return CollSpan{h: h, op: op, comm: comm, seq: seq}
}

// Exit closes the collective opened by CollEnter.
func (s CollSpan) Exit() { s.h.Rec.CollEndN(s.op, s.comm, s.seq) }

// PhaseBegin marks the rank entering a runner phase: the tracer opens the
// span (closed by Rec.PhaseEnd) and the introspection plane relabels the
// rank.
func (h *Handle) PhaseBegin(phase string) {
	h.Rec.PhaseBegin(phase)
	h.Probe.SetPhase(phase)
}

// TaskCommit marks one commit point — a map task completing (what="map") or
// reduce progress on a partition becoming durable (what="reduce") — so
// ftmr_task_commits always equals the trace's task.commit count.
func (h *Handle) TaskCommit(what string, id int, count int64) {
	h.Rec.TaskCommit(what, id, count)
	h.Core.TaskCommits.Inc()
}

// CkptStall attributes d of main-thread blocking to checkpoint I/O: what is
// "write" (a synchronous frame append) or "drain" (the phase-boundary copier
// drain).
func (h *Handle) CkptStall(what string, d time.Duration) {
	wait := h.Core.CkptWriteWait
	if what == "drain" {
		wait = h.Core.CkptDrainWait
	}
	wait.Add(d.Seconds())
	h.Rec.CkptStall(what, d)
}

// RecoveryRead marks one recovery-time read of a checkpoint stream and the
// failover-chain tier that satisfied it (a metrics.Source* label).
func (h *Handle) RecoveryRead(stream, source string, bytes, frames int) {
	h.Rec.CkptLoad(stream, bytes, frames)
	h.Rec.RecoverySource(source, bytes, frames)
	h.Core.RecoveryReads[source].Inc()
}

// LBFit publishes the load-balance model the rank fitted for a
// redistribution round: t = intercept + slope·bytes, with the fit's RMS
// residual over its nObs observations.
func (h *Handle) LBFit(model string, intercept, slope, rms float64, nObs int) {
	h.Rec.LBFit(model, intercept, slope, nObs)
	h.Core.LBIntercept.Set(intercept)
	h.Core.LBSlope.Set(slope)
	h.Core.LBResidual.Set(rms)
	h.Core.LBObs.Set(float64(nObs))
}

// ShadowSyncPush marks a primary pushing reduce commit progress (groups of
// partition part, in a bytes-long record) to its shadow. The shadow's side
// is trace-only: Rec.ShadowSync("drain", ..).
func (h *Handle) ShadowSyncPush(part, groups int, bytes uint64) {
	h.Rec.ShadowSync("push", part, groups, bytes)
	h.FT.ShadowSyncs.Inc()
}

// Failover marks this rank (world rank shadow) promoting itself to acting
// primary of the slot the failed world rank slot held.
func (h *Handle) Failover(slot, shadow int) {
	h.Rec.Failover(slot, shadow)
	h.FT.Failovers.Inc()
}
