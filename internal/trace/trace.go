// Package trace is a low-overhead, per-rank structured event tracer keyed
// on virtual time.
//
// The paper's whole evaluation is time decomposition (Figure 3 splits
// recovery into init/load/skip/reprocess; Figures 7/9/10 decompose per-phase
// and per-thread time), but aggregate counters cannot show *when* a revoke
// landed, which collective a rank was blocked in when a peer died, or how
// the copier interleaved with the main thread. This package records typed
// events — phase begin/end, MPI point-to-point and collective enter/exit
// with peer/tag/bytes, ULFM revoke/shrink/agree steps, checkpoint frame
// commits, copier drains, failure injection/detection, load-balancer
// decisions, task commits, recovery spans — into per-rank ring buffers, and
// exports them as JSONL or as a Chrome trace_event file that opens directly
// in Perfetto / chrome://tracing (one track per rank, async spans for
// recoveries, and flow arrows connecting each send to its matching recv).
//
// Beyond recording, the package analyzes traces: Diff aligns two runs of
// the same workload and pinpoints where their virtual time first diverged
// (the engine behind `ftmr-trace diff`), and Flows validates the
// send→recv pairing of the per-message flow ids. The serialized JSONL form
// is versioned (SchemaVersion); DESIGN.md §"Trace wire format v2" is the
// field-by-field contract, pinned by the golden fixtures in testdata/.
//
// Tracing is strictly opt-in and nil-safe: every Recorder method is a no-op
// on a nil receiver, and a nil *Tracer hands out nil Recorders, so the
// disabled hot path costs exactly one pointer-nil branch (gated, together
// with the other planes, by internal/obs TestOverheadGate).
package trace

import (
	"math"
	"slices"
	"time"

	"ftmrmpi/internal/jsonl"
	"ftmrmpi/internal/vtime"
)

// SchemaVersion is the JSONL wire-format version this package writes (the
// "schema" field of the header line) and the one version ReadJSONL reads;
// see DESIGN.md §"Trace wire format v2" for the compatibility rules.
const SchemaVersion = 2

// Kind identifies the type of one trace event.
type Kind uint8

const (
	// Runner phase loop.
	KindPhaseBegin Kind = iota + 1 // Name=phase
	KindPhaseEnd                   // Name=phase

	// MPI point-to-point. A=peer world rank (-1 = wildcard), B=tag, C=bytes.
	KindSendBegin
	KindSendEnd   // Flow carries the message id stamped by the MPI layer
	KindRecvBegin // A records the requested source (-1 = wildcard)
	KindRecvEnd   // Flow repeats the consumed message's id (0 = aborted recv)

	// MPI collectives. Name=operation ("barrier", "allgather", ...).
	KindCollBegin
	KindCollEnd // closes the innermost open collective span

	// Checkpoint path. Name=stream, A=bytes, B=frames.
	KindCkptCommit  // frame(s) committed by the writer
	KindCopierDrain // copier drained a stream's suffix to the PFS
	KindCkptLoad    // reader replayed a stream during recovery

	// Failure handling. A=world rank (or first of several), B=count.
	KindFailureInject // the injector fired a kill
	KindFailureKill   // the process actually died (any cause)
	KindFailureDetect // a survivor locally detected the failure

	// ULFM steps. Shrink: A=group size (begin) / survivor count (end).
	KindRevoke      // Name="initiate" (caller) or "observed" (survivor in recovery)
	KindShrinkBegin // A=group size entering the shrink
	KindShrinkEnd   // A=survivor count after the shrink
	KindAgreeBegin  // A=flag (Agree) or 0 (shrink-internal agreement)
	KindAgreeEnd    // A=agreed flag value

	// Runner decisions. LoadBalance: Name="parts"|"tasks", A=pieces,
	// B=survivors. TaskCommit: Name="map"|"reduce", A=task/partition id,
	// B=records/groups committed.
	KindLoadBalance
	KindTaskCommit // one map task / reduce partition durably committed

	// Recovery span (runner.recover / resumePrepare), exported as an async span.
	KindRecoveryBegin
	KindRecoveryEnd // closes the rank's open recovery episode

	// Checkpoint corruption detected and quarantined. Name=stream,
	// A=valid prefix bytes kept, B=total bytes before truncation.
	KindCkptCorrupt

	// Load-balancer model publication (a fit computed for a recovery
	// allgather). Name=model kind ("static"|"trace"), A=intercept in
	// nanoseconds, B=slope in picoseconds per byte, C=observation count.
	KindLBFit

	// Copier thread span: one drained stream suffix, rendered as a B/E span
	// on the copier thread track so main/copier CPU interleaving (paper
	// Fig 7) is directly visible. Name=stream, A=bytes.
	KindCopierBegin
	KindCopierEnd // closes the copier span opened by KindCopierBegin

	// Straggler injection: a rank's compute charges stretch from here on.
	// A=world rank, B=slowdown factor in permille.
	KindSlowRank

	// Job anchors: emitted once per rank when the job's runner starts and
	// when the rank observes the final commit. Name=job id; job.end carries
	// A=1 when the run aborted. The critical-path analyzer anchors its walk
	// on the earliest job.begin and the latest job.end.
	KindJobBegin
	KindJobEnd // closes the job opened by KindJobBegin; A=1 on abort

	// Recovery stage attribution: one of the paper's Figure 3 buckets was
	// just charged. Name="init"|"load"|"skip"|"reprocess", A=duration in
	// nanoseconds. Emitted at exactly the points where the runner
	// accumulates RankMetrics.Recovery.*, so event sums equal the counters.
	KindRecoveryStage

	// Checkpoint stall attribution: the main thread blocked on checkpoint
	// I/O. Name="write" (synchronous append) | "drain" (phase-boundary
	// drain), A=duration in nanoseconds.
	KindCkptStall

	// Ring-buffer drop marker: the rank's recorder overwrote A events before
	// serialization. Synthesized by WriteJSONL (never recorded live) so file
	// consumers can tell a truncated DAG from a complete one.
	KindDrops

	// Recovery read-path source attribution: one checkpoint stream read was
	// satisfied during recovery. Name = the source that won the failover
	// chain ("replica-local", "replica-peer" or "pfs"), A = bytes read,
	// B = frames replayed.
	KindRecoverySource

	// Shadow sync (replication execution model): a primary pushed reduce
	// commit progress to its shadow, or the shadow consumed it. Name="push"
	// or "drain", A=partition id, B=groups committed, C=output bytes.
	KindShadowSync

	// Failover (replication execution model): a shadow rank promoted itself
	// to acting primary for a failed slot with no replay and no PFS read.
	// Name="promote"; A=slot (the failed primary's world rank), B=the
	// promoted shadow's world rank.
	KindFailover
)

var kindNames = map[Kind]string{
	KindPhaseBegin:     "phase.begin",
	KindPhaseEnd:       "phase.end",
	KindSendBegin:      "send.begin",
	KindSendEnd:        "send.end",
	KindRecvBegin:      "recv.begin",
	KindRecvEnd:        "recv.end",
	KindCollBegin:      "coll.begin",
	KindCollEnd:        "coll.end",
	KindCkptCommit:     "ckpt.commit",
	KindCopierDrain:    "copier.drain",
	KindCkptLoad:       "ckpt.load",
	KindFailureInject:  "failure.inject",
	KindFailureKill:    "failure.kill",
	KindFailureDetect:  "failure.detect",
	KindRevoke:         "revoke",
	KindShrinkBegin:    "shrink.begin",
	KindShrinkEnd:      "shrink.end",
	KindAgreeBegin:     "agree.begin",
	KindAgreeEnd:       "agree.end",
	KindLoadBalance:    "lb.decision",
	KindTaskCommit:     "task.commit",
	KindRecoveryBegin:  "recovery.begin",
	KindRecoveryEnd:    "recovery.end",
	KindCkptCorrupt:    "ckpt.corrupt",
	KindLBFit:          "lb.fit",
	KindCopierBegin:    "copier.begin",
	KindCopierEnd:      "copier.end",
	KindSlowRank:       "failure.slow",
	KindJobBegin:       "job.begin",
	KindJobEnd:         "job.end",
	KindRecoveryStage:  "recovery.stage",
	KindCkptStall:      "ckpt.stall",
	KindDrops:          "trace.drops",
	KindRecoverySource: "recovery.source",
	KindShadowSync:     "shadow.sync",
	KindFailover:       "ftmodel.failover",
}

// String returns the kind's stable wire name (e.g. "phase.begin"), as used
// in the JSONL format.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// GlobalRank is the pseudo-rank of the tracer's world track (events not
// attributable to one rank's timeline, e.g. kills observed by the process
// manager).
const GlobalRank = -1

// Event is one recorded occurrence. Seq is a tracer-global sequence number:
// events with equal virtual time are causally ordered by Seq (the simulator
// runs one process at a time, so Seq order is execution order). VT is
// virtual simulation time, not wall time — every duration and timestamp in
// this package is virtual unless a name says otherwise.
type Event struct {
	Seq  uint64        // tracer-global causal sequence number
	VT   time.Duration // virtual time of the occurrence
	Rank int           // world rank (GlobalRank for world events)
	Kind Kind          // event type; fixes the meaning of Name/A/B/C
	Name string        // kind-specific label (phase, collective op, stream, ...)
	A    int64         // kind-specific (see Kind docs)
	B    int64         // kind-specific (see Kind docs)
	C    int64         // kind-specific (see Kind docs)

	// Flow is the world-unique message id linking a send.end to the
	// recv.end that consumed the same message (0 = not a flow event). The
	// Chrome sink renders matching ids as "s"/"f" flow arrows across rank
	// tracks; Flows() validates the pairing.
	Flow uint64
}

// DefaultCapacity is the per-rank ring capacity when none is given.
const DefaultCapacity = 1 << 14

// chunkSlots is the size, in events, of each piece a ring grows by: 38
// events are 3 040 B, and with the 8 B header the Go allocator gives a
// pointer-holding object that large they fill its 3 072 B size class to
// within 1 %.
const chunkSlots = 38

// Tracer owns the per-rank recorders of one simulation. A nil *Tracer is a
// valid disabled tracer.
type Tracer struct {
	sim    *vtime.Sim
	cap    int
	seq    uint64
	rec    map[int]*Recorder
	stream *jsonl.Writer // non-nil when StreamJSONL is active (write-through)
	line   []byte        // the streaming sink's reused line buffer
}

// New creates a tracer stamping events with sim's virtual clock. capPerRank
// is each rank's ring capacity in events; <= 0 selects DefaultCapacity. The
// capacity is a bound, not a reservation: a ring grows with the events its
// rank records and holds min(events, capacity) of them.
func New(sim *vtime.Sim, capPerRank int) *Tracer {
	if capPerRank <= 0 {
		capPerRank = DefaultCapacity
	}
	return &Tracer{sim: sim, cap: capPerRank, rec: make(map[int]*Recorder)}
}

// Rank returns (creating if needed) the recorder for a world rank. On a nil
// tracer it returns nil, which is itself a valid disabled recorder.
func (t *Tracer) Rank(rank int) *Recorder {
	if t == nil {
		return nil
	}
	r, ok := t.rec[rank]
	if !ok {
		r = &Recorder{t: t, rank: rank}
		t.rec[rank] = r
	}
	return r
}

// Global returns the recorder of the world track.
func (t *Tracer) Global() *Recorder { return t.Rank(GlobalRank) }

// Ranks returns the ranks that have recorders, ascending (GlobalRank first).
func (t *Tracer) Ranks() []int {
	if t == nil {
		return nil
	}
	out := make([]int, 0, len(t.rec))
	for r := range t.rec {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// Events returns every retained event of every rank, in causal (Seq) order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	n := 0
	for _, r := range t.rec {
		n += r.n
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	t.merge(func(ev *Event) { out = append(out, *ev) })
	return out
}

// merge calls fn with every retained event of every rank, in causal (Seq)
// order, without copying them. A ring holds its rank's events in Seq order;
// Seq is tracer-global and unique, so merging the rings through a min-heap
// on each one's next Seq gives the one total order whatever order the rings
// are visited in. What it allocates is proportional to the ranks.
func (t *Tracer) merge(fn func(*Event)) {
	rings := make([]*Recorder, 0, len(t.rec))
	heap := make([]nextSeq, 0, len(t.rec))
	for _, r := range t.rec {
		if r.n > 0 {
			heap = append(heap, nextSeq{r.at(0).Seq, len(rings), 0})
			rings = append(rings, r)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	for len(heap) > 0 {
		// A rank records in bursts (it runs until it blocks), so the leading
		// ring goes on until its next event comes after the runner-up's.
		top := &heap[0]
		r := rings[top.ring]
		next := uint64(math.MaxUint64)
		for c := 1; c <= 2 && c < len(heap); c++ {
			next = min(next, heap[c].seq)
		}
		for {
			fn(r.at(top.i))
			if top.i++; top.i == r.n {
				heap[0] = heap[len(heap)-1]
				heap = heap[:len(heap)-1]
				break
			}
			if top.seq = r.at(top.i).Seq; top.seq > next {
				break
			}
		}
		siftDown(heap, 0)
	}
}

// nextSeq is one entry of the merge heap: the Seq of the next event of a
// ring still being merged, and that event's place in the ring's recording
// order. Pointer-free, so ordering the heap touches neither the rings nor
// the collector's write barrier.
type nextSeq struct {
	seq  uint64
	ring int
	i    int
}

// siftDown restores the min-heap order (by seq) below index i.
func siftDown(heap []nextSeq, i int) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(heap); c++ {
			if heap[c].seq < heap[least].seq {
				least = c
			}
		}
		if least == i {
			return
		}
		heap[i], heap[least] = heap[least], heap[i]
		i = least
	}
}

// EventsFor returns one rank's retained events in order.
func (t *Tracer) EventsFor(rank int) []Event {
	if t == nil {
		return nil
	}
	r, ok := t.rec[rank]
	if !ok {
		return nil
	}
	return r.Events()
}

// Dropped returns how many events a rank's ring has overwritten.
func (t *Tracer) Dropped(rank int) uint64 {
	if t == nil {
		return 0
	}
	r, ok := t.rec[rank]
	if !ok {
		return 0
	}
	return r.dropped()
}

// Recorder is one rank's ring-buffered event log. All methods are no-ops on
// a nil receiver: call sites pay a single branch when tracing is disabled.
//
// The ring grows one chunk of chunkSlots events at a time, up to the
// tracer's capacity, and never moves an event it holds: what a ring has
// allocated is its retained events, at most one chunk more, and a table of
// one pointer per chunk.
type Recorder struct {
	t      *Tracer
	rank   int
	chunks []*[chunkSlots]Event // slot i is chunks[i/chunkSlots][i%chunkSlots]
	n      int                  // events retained: min(total, capacity)
	next   int                  // slot of the oldest event once the ring is full
	total  uint64               // events ever recorded
}

// slot returns ring slot i.
func (r *Recorder) slot(i int) *Event { return &r.chunks[i/chunkSlots][i%chunkSlots] }

// at returns the i-th retained event in recording order, i in [0, n).
func (r *Recorder) at(i int) *Event {
	if i += r.next; i >= r.n {
		i -= r.n
	}
	return r.slot(i)
}

// emit appends one event, overwriting the oldest once the ring is full.
func (r *Recorder) emit(kind Kind, name string, a, b, c int64) {
	r.emitFlow(kind, name, a, b, c, 0)
}

// emitFlow is emit with a message flow id attached (p2p completion events).
func (r *Recorder) emitFlow(kind Kind, name string, a, b, c int64, flow uint64) {
	if r == nil {
		return
	}
	t := r.t
	t.seq++
	ev := Event{Seq: t.seq, VT: t.sim.Now(), Rank: r.rank, Kind: kind, Name: name, A: a, B: b, C: c, Flow: flow}
	if t.stream != nil {
		t.line = appendJSONL(t.line[:0], &ev)
		t.stream.WriteLine(t.line)
	}
	r.total++
	if r.n < t.cap {
		if r.n == len(r.chunks)*chunkSlots {
			r.chunks = append(r.chunks, new([chunkSlots]Event))
		}
		*r.slot(r.n) = ev
		r.n++
		return
	}
	*r.slot(r.next) = ev
	if r.next++; r.next == r.n {
		r.next = 0
	}
}

// Events returns the retained events in recording order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, r.n)
	for i := range out {
		out[i] = *r.at(i)
	}
	return out
}

func (r *Recorder) dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.total - uint64(r.n)
}

// --- typed emit helpers (all nil-safe) -----------------------------------

// PhaseBegin / PhaseEnd bracket one execution of a runner phase.
func (r *Recorder) PhaseBegin(name string) { r.emit(KindPhaseBegin, name, 0, 0, 0) }

// PhaseEnd closes the span opened by PhaseBegin.
func (r *Recorder) PhaseEnd(name string) { r.emit(KindPhaseEnd, name, 0, 0, 0) }

// SendBegin / SendEnd bracket a point-to-point send to peer (world rank).
func (r *Recorder) SendBegin(peer, tag, bytes int) {
	r.emit(KindSendBegin, "", int64(peer), int64(tag), int64(bytes))
}

// SendEnd closes the span opened by SendBegin. msg is the world-unique
// message id stamped by the MPI layer (the flow id pairing this send with
// its recv.end); 0 when the message never entered delivery.
func (r *Recorder) SendEnd(peer, tag, bytes int, msg uint64) {
	r.emitFlow(KindSendEnd, "", int64(peer), int64(tag), int64(bytes), msg)
}

// RecvBegin marks a receive being posted; peer may be -1 (wildcard).
func (r *Recorder) RecvBegin(peer, tag int) {
	r.emit(KindRecvBegin, "", int64(peer), int64(tag), 0)
}

// RecvEnd marks the receive completing with the resolved source and size.
// msg is the flow id of the consumed message (0 on error completions).
func (r *Recorder) RecvEnd(peer, tag, bytes int, msg uint64) {
	r.emitFlow(KindRecvEnd, "", int64(peer), int64(tag), int64(bytes), msg)
}

// CkptCommit marks checkpoint frames becoming durable at the writer.
func (r *Recorder) CkptCommit(stream string, bytes, frames int) {
	r.emit(KindCkptCommit, stream, int64(bytes), int64(frames), 0)
}

// CopierDrain marks the copier draining a stream suffix to the PFS.
func (r *Recorder) CopierDrain(stream string, bytes int) {
	r.emit(KindCopierDrain, stream, int64(bytes), 0, 0)
}

// CopierBegin / CopierEnd bracket one stream drain on the copier thread
// track (the per-drain span behind the Fig 7 main/copier interleaving view;
// CopierDrain remains the success instant).
func (r *Recorder) CopierBegin(stream string, bytes int) {
	r.emit(KindCopierBegin, stream, int64(bytes), 0, 0)
}

// CopierEnd closes the span opened by CopierBegin.
func (r *Recorder) CopierEnd(stream string, bytes int) {
	r.emit(KindCopierEnd, stream, int64(bytes), 0, 0)
}

// CkptLoad marks the recovery reader replaying a stream.
func (r *Recorder) CkptLoad(stream string, bytes, frames int) {
	r.emit(KindCkptLoad, stream, int64(bytes), int64(frames), 0)
}

// CkptCorrupt marks a corrupted or torn checkpoint stream being quarantined:
// valid bytes were kept, total-valid bytes were truncated away.
func (r *Recorder) CkptCorrupt(stream string, valid, total int) {
	r.emit(KindCkptCorrupt, stream, int64(valid), int64(total), 0)
}

// FailureInject marks the failure injector firing against a rank.
func (r *Recorder) FailureInject(rank int) { r.emit(KindFailureInject, "", int64(rank), 1, 0) }

// FailureKill marks the actual death of a rank.
func (r *Recorder) FailureKill(rank int) { r.emit(KindFailureKill, "", int64(rank), 1, 0) }

// FailureDetect marks a survivor locally observing a failure. ranks lists
// the world ranks involved (may be empty when only the condition is known).
func (r *Recorder) FailureDetect(ranks []int) {
	first := int64(-1)
	if len(ranks) > 0 {
		first = int64(ranks[0])
	}
	r.emit(KindFailureDetect, "", first, int64(len(ranks)), 0)
}

// Revoke marks revocation: how="initiate" on the revoking rank, "observed"
// on survivors entering recovery on an already-revoked communicator.
func (r *Recorder) Revoke(how string) { r.emit(KindRevoke, how, 0, 0, 0) }

// ShrinkBegin / ShrinkEnd bracket MPI_Comm_shrink.
func (r *Recorder) ShrinkBegin(groupSize int) { r.emit(KindShrinkBegin, "", int64(groupSize), 0, 0) }

// ShrinkEnd closes the shrink span with the survivor count.
func (r *Recorder) ShrinkEnd(survivors int) { r.emit(KindShrinkEnd, "", int64(survivors), 0, 0) }

// AgreeBegin / AgreeEnd bracket a fault-tolerant agreement round.
func (r *Recorder) AgreeBegin(flag int) { r.emit(KindAgreeBegin, "", int64(flag), 0, 0) }

// AgreeEnd closes the agreement span with the agreed value.
func (r *Recorder) AgreeEnd(result int) { r.emit(KindAgreeEnd, "", int64(result), 0, 0) }

// LoadBalance marks a redistribution decision (what = "parts" or "tasks").
func (r *Recorder) LoadBalance(what string, pieces, survivors int) {
	r.emit(KindLoadBalance, what, int64(pieces), int64(survivors), 0)
}

// LBFit records the coefficients a rank publishes for a redistribution
// round: intercept and slope of t = a + b·D, quantized to ns and ps/byte so
// the event stays integer-valued, plus the observation count behind the fit.
func (r *Recorder) LBFit(model string, interceptSec, slopeSecPerByte float64, nObs int) {
	r.emit(KindLBFit, model, int64(interceptSec*1e9), int64(slopeSecPerByte*1e12), int64(nObs))
}

// SlowRank marks a straggler injection (factor quantized to permille).
func (r *Recorder) SlowRank(rank int, factor float64) {
	r.emit(KindSlowRank, "", int64(rank), int64(factor*1000), 0)
}

// TaskCommit marks a map task (what="map") or reduce partition progress
// (what="reduce") commit.
func (r *Recorder) TaskCommit(what string, id int, count int64) {
	r.emit(KindTaskCommit, what, int64(id), count, 0)
}

// RecoveryBegin / RecoveryEnd bracket one recovery episode.
func (r *Recorder) RecoveryBegin() { r.emit(KindRecoveryBegin, "", 0, 0, 0) }

// RecoveryEnd closes the recovery span.
func (r *Recorder) RecoveryEnd() { r.emit(KindRecoveryEnd, "", 0, 0, 0) }

// JobBegin anchors the start of a job's execution on this rank.
func (r *Recorder) JobBegin(jobID string) { r.emit(KindJobBegin, jobID, 0, 0, 0) }

// JobEnd anchors the rank observing the job's final commit (aborted=true
// when the run is unwinding through an abort instead).
func (r *Recorder) JobEnd(jobID string, aborted bool) {
	a := int64(0)
	if aborted {
		a = 1
	}
	r.emit(KindJobEnd, jobID, a, 0, 0)
}

// RecoveryStage attributes d of recovery time to one Figure 3 bucket
// (stage = "init", "load", "skip" or "reprocess"). Zero charges are elided.
func (r *Recorder) RecoveryStage(stage string, d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.emit(KindRecoveryStage, stage, int64(d), 0, 0)
}

// RecoverySource marks one recovery-time checkpoint stream read and the
// tier that satisfied it: source is "replica-local" (the rank's own
// in-memory replica store), "replica-peer" (frames pushed back by a replica
// partner) or "pfs" (durable restore). The per-source counts drive the
// ftmr_recovery_reads{source} counters and the abl-restore ablation.
func (r *Recorder) RecoverySource(source string, bytes, frames int) {
	r.emit(KindRecoverySource, source, int64(bytes), int64(frames), 0)
}

// ShadowSync marks replicate-mode reduce progress crossing a pair: a
// primary pushing a commit record to its shadow (what="push") or the shadow
// consuming one (what="drain"). part/groups/bytes mirror the commit.
func (r *Recorder) ShadowSync(what string, part int, groups int, bytes uint64) {
	r.emit(KindShadowSync, what, int64(part), int64(groups), int64(bytes))
}

// Failover marks a shadow promoting itself to acting primary for a failed
// slot (replication execution model: no replay, no PFS read).
func (r *Recorder) Failover(slot, shadow int) {
	r.emit(KindFailover, "promote", int64(slot), int64(shadow), 0)
}

// CkptStall attributes d of main-thread blocking to checkpoint I/O
// (what = "write" or "drain"). Zero charges are elided.
func (r *Recorder) CkptStall(what string, d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.emit(KindCkptStall, what, int64(d), 0, 0)
}

// CollBeginN / CollEndN bracket a collective operation, stamped with its
// instance: comm is the communicator's world-unique id, seq the
// per-communicator operation sequence number all participants of this
// instance share. The pair lets the critical-path analyzer match a coll.end
// to exactly the begins of the same instance instead of guessing from open
// spans.
func (r *Recorder) CollBeginN(op string, comm, seq int) {
	r.emit(KindCollBegin, op, int64(comm), int64(seq), 0)
}

// CollEndN closes the span opened by CollBeginN with the same stamp.
func (r *Recorder) CollEndN(op string, comm, seq int) {
	r.emit(KindCollEnd, op, int64(comm), int64(seq), 0)
}
