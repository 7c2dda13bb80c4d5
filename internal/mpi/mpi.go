// Package mpi is an in-process, deterministic simulation of the Message
// Passing Interface — the substrate FT-MRMPI is built on.
//
// Ranks are simulated processes (one per cluster core); communicators
// support point-to-point messaging with source/tag matching and wildcards,
// and collectives, each a rendezvous (rendezvous.go) priced from the message
// schedule it stands for (coll.go). Failure behaviour is MPI-3's: a failure
// is reflected as a *local* error in the communication calls that involve the
// failed process — a receive from it, a collective it is a member of — other
// ranks may proceed or block, and there is no global notification: the
// inconsistency FT-MRMPI's checkpoint/restart design exploits via error
// handlers plus Abort (paper §2.2, §2.4, §4.1).
//
// The ULFM extensions (Revoke/Shrink/Agree; ulfm.go) implement the user-level
// failure mitigation proposal the detect/resume model needs (paper §4.2);
// Shrink and Agree are the same rendezvous under two more finish policies.
package mpi

import (
	"errors"
	"fmt"
	"sort"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/obs"
	"ftmrmpi/internal/vtime"
)

// AnySource is TryRecv's source wildcard. Tags must be non-negative.
const AnySource = -1

// ErrRevoked is returned by operations on a revoked communicator.
var ErrRevoked = errors.New("mpi: communicator revoked")

// ErrAborted is returned when the job was aborted while an operation was in
// flight.
var ErrAborted = errors.New("mpi: job aborted")

// ProcFailedError reports that one or more processes needed by the
// operation have failed.
type ProcFailedError struct {
	// Ranks lists the failed processes as world ranks.
	Ranks []int
}

// Error formats the failure with the world ranks involved.
func (e *ProcFailedError) Error() string {
	return fmt.Sprintf("mpi: process failure involving world ranks %v", e.Ranks)
}

// IsProcFailed reports whether err is (or wraps) a process failure.
func IsProcFailed(err error) bool {
	var pf *ProcFailedError
	return errors.As(err, &pf)
}

// Message is a received point-to-point message. Src is a communicator rank.
// id is the cluster-unique message id stamped at the send site; it travels
// with the message so the receiver's recv.end trace event carries the same
// flow id as the sender's send.end (the tracer's send→recv flow arrows).
type Message struct {
	// Src is the sender's rank in the communicator the message was sent on.
	Src int
	// Tag is the message tag.
	Tag int
	// Val is the payload, the sender's value itself. Receivers must treat it
	// as read-only: eager sends hand over the sender's value, not a copy.
	Val any
	// Size is the byte length the send was priced at: its wire size.
	Size int
	id   uint64
}

// World owns the ranks of one MPI job and their shared failure state.
type World struct {
	// Sim is the simulator the job's ranks run on.
	Sim *vtime.Sim
	// Clus is the cluster providing nodes, links, and storage.
	Clus    *cluster.Cluster
	n       int
	ranks   []*Rank
	comms   []*commState
	aborted bool
	// done counts rank main functions that returned normally.
	done int
}

// Rank is one MPI process.
type Rank struct {
	w     *World
	world int // world rank
	proc  *vtime.Proc
	cpu   *vtime.Bandwidth
	node  *cluster.Node
	alive bool
	// computeScale stretches Compute charges when > 0 (straggler
	// injection); zero means unscaled, keeping the hot path branch-cheap.
	computeScale float64
	// obs is the rank's handle on the trace, metrics and introspection
	// planes, built once in Launch; never nil, and a plane that is off costs
	// each instrumentation point one nil branch.
	obs *obs.Handle
}

// Obs returns the rank's observation handle: the one way the layers above
// reach the cluster's trace, metrics and introspection planes. Never nil.
func (r *Rank) Obs() *obs.Handle { return r.obs }

// WorldRank returns the rank's id in the world communicator.
func (r *Rank) WorldRank() int { return r.world }

// Alive reports whether the rank has not failed.
func (r *Rank) Alive() bool { return r.alive }

// SetComputeScale stretches every subsequent Compute charge by factor
// (straggler injection: the rank stays alive and correct, only slower).
// factor <= 0 or 1 restores normal speed.
func (r *Rank) SetComputeScale(factor float64) {
	if factor == 1 {
		factor = 0
	}
	r.computeScale = factor
}

// Compute charges sec seconds of CPU work against the rank's core
// (processor-shared with any agent threads on the same core).
func (r *Rank) Compute(p *vtime.Proc, sec float64) {
	if r.computeScale > 0 {
		sec *= r.computeScale
	}
	if sec > 0 {
		r.cpu.Acquire(p, sec)
	}
}

// commState is the shared state of a communicator.
type commState struct {
	w       *World
	id      int
	group   []int // world ranks, ascending
	revoked bool
	boxes   []*mailbox // indexed by comm rank
	opSeq   []int      // per comm-rank count of collectives entered: the seq each one is stamped with
	// meets lists the rendezvous an interrupt can reach, oldest first
	// (rendezvous.go): every collective, Shrink and Agree.
	meets []*meet
	// errHandler per comm-rank (nil = errors-are-fatal: abort).
	handlers []func(*Comm, error)
	// deadCount is the number of failed ranks in the group. It lets
	// entryErr answer the common no-failure case in O(1) instead of scanning
	// the whole group on every collective.
	deadCount int
}

// Comm is one rank's handle on a communicator.
type Comm struct {
	st   *commState
	rank int // this rank's position in st.group
	r    *Rank
}

// Launch creates a world of n ranks on clus and spawns one simulated process
// per rank running main. Ranks are placed block-wise: rank r runs on node
// r/ppn, core r%ppn. It returns the World for failure injection and
// inspection; the caller drives clus.Sim.Run().
func Launch(clus *cluster.Cluster, n int, main func(c *Comm)) *World {
	if n <= 0 || n > clus.Slots() {
		panic(fmt.Sprintf("mpi: cannot launch %d ranks on %d slots", n, clus.Slots()))
	}
	w := &World{Sim: clus.Sim, Clus: clus, n: n}
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	st := w.newCommState(group)
	for i := 0; i < n; i++ {
		i := i
		r := &Rank{w: w, world: i, cpu: clus.CoreOf(i), node: clus.NodeOf(i), alive: true,
			obs: obs.New(clus.Trace, clus.Metrics, clus.Introspect, i)}
		w.ranks = append(w.ranks, r)
		r.proc = clus.Sim.Spawn(fmt.Sprintf("rank%d", i), func(p *vtime.Proc) {
			defer func() { w.done++ }()
			main(&Comm{st: st, rank: i, r: r})
		})
		r.proc.OnKill(func() { w.noteFailure(i) })
	}
	clus.Introspect.AttachWorld(w)
	return w
}

// newCommState registers a fresh communicator over the given world ranks,
// all of them alive (Launch's world, Shrink's survivors): its dead count
// starts at zero.
func (w *World) newCommState(group []int) *commState {
	st := &commState{w: w, id: len(w.comms), group: append([]int(nil), group...)}
	sort.Ints(st.group)
	st.boxes = make([]*mailbox, len(group))
	st.opSeq = make([]int, len(group))
	st.handlers = make([]func(*Comm, error), len(group))
	for i := range st.boxes {
		st.boxes[i] = &mailbox{}
	}
	w.comms = append(w.comms, st)
	return st
}

// Kill injects a failure of the given world rank: its process unwinds and
// every communication operation that involves it observes an error, per
// MPI-3 semantics. Killing a dead rank is a no-op.
func (w *World) Kill(worldRank int) {
	r := w.ranks[worldRank]
	if !r.alive {
		return
	}
	w.Sim.Kill(r.proc) // OnKill hook calls noteFailure
}

// noteFailure marks the rank dead and fails the operations blocked on it.
func (w *World) noteFailure(worldRank int) {
	r := w.ranks[worldRank]
	if !r.alive {
		return
	}
	r.alive = false
	r.obs.Rec.FailureKill(worldRank)
	for _, st := range w.comms {
		st.onFailure(worldRank)
	}
}

// Aborted reports whether Abort was called on the world.
func (w *World) Aborted() bool { return w.aborted }

// AliveCount returns the number of live ranks.
func (w *World) AliveCount() int {
	n := 0
	for _, r := range w.ranks {
		if r.alive {
			n++
		}
	}
	return n
}

// AliveRanks returns the world ranks still alive, ascending.
func (w *World) AliveRanks() []int {
	var out []int
	for _, r := range w.ranks {
		if r.alive {
			out = append(out, r.world)
		}
	}
	return out
}

// Rank returns the rank object for a world rank.
func (w *World) Rank(worldRank int) *Rank { return w.ranks[worldRank] }

// Size returns the world size.
func (w *World) Size() int { return w.n }

// onFailure wakes every parked operation on this communicator that involves
// the failed world rank.
func (st *commState) onFailure(worldRank int) {
	cr := st.commRankOf(worldRank)
	if cr < 0 {
		return
	}
	st.deadCount++
	for _, box := range st.boxes {
		if rw := box.parked(); rw != nil && rw.src == cr {
			st.complete(box, rw, nil, &ProcFailedError{Ranks: []int{worldRank}})
		}
	}
	st.interrupt(&ProcFailedError{Ranks: []int{worldRank}}, st.w.ranks[worldRank])
}

// commRankOf maps a world rank to its position in the group, or -1.
func (st *commState) commRankOf(worldRank int) int {
	i := sort.SearchInts(st.group, worldRank)
	if i < len(st.group) && st.group[i] == worldRank {
		return i
	}
	return -1
}

// --- Comm basics ---------------------------------------------------------

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator (including failed
// ones; MPI group membership is immutable).
func (c *Comm) Size() int { return len(c.st.group) }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) int { return c.st.group[commRank] }

// Group returns the communicator's world ranks, ascending: WorldRank of
// every comm rank, in one slice that every rank of the communicator shares.
// It is read-only to every holder, and never changes.
func (c *Comm) Group() []int { return c.st.group }

// CommRankOf translates a world rank to its rank within this communicator,
// or -1 when the world rank is not in the communicator's group. The inverse
// of WorldRank; callers that compute placement in world-rank space (replica
// partners) use it to address sends on a shrunk communicator.
func (c *Comm) CommRankOf(worldRank int) int { return c.st.commRankOf(worldRank) }

// Self returns the rank object of the caller.
func (c *Comm) Self() *Rank { return c.r }

// Proc returns the caller's simulated process.
func (c *Comm) Proc() *vtime.Proc { return c.r.proc }

// SetErrHandler installs the caller's error handler (the equivalent of
// MPI_Comm_set_errhandler with a user handler). A nil handler restores the
// default MPI_ERRORS_ARE_FATAL behaviour, which aborts the job.
func (c *Comm) SetErrHandler(fn func(*Comm, error)) { c.st.handlers[c.rank] = fn }

// raise delivers err through the rank's error handler, mimicking MPI error
// raising at a communication call. With no handler installed the default is
// errors-are-fatal: the job aborts. Revocation and abort notifications are
// delivered to handlers too (they are how ULFM interrupts normal flow), and
// the original error is returned to the caller in all cases.
func (c *Comm) raise(err error) error {
	if err == nil {
		return nil
	}
	h := c.st.handlers[c.rank]
	if h == nil {
		if !errors.Is(err, ErrAborted) {
			c.Abort()
		}
		return err
	}
	h(c, err)
	return err
}

// Abort terminates the whole job: the process manager broadcasts the
// termination and kills every surviving process (paper §4.1: "The process
// manager in MPI will broadcast the termination of the process...").
func (c *Comm) Abort() {
	w := c.st.w
	if w.aborted {
		return
	}
	w.aborted = true
	for _, r := range w.ranks {
		if r.alive && r != c.r {
			w.Sim.Kill(r.proc)
		}
	}
	// The aborting rank unwinds itself last.
	if c.r.alive {
		w.Sim.Kill(c.r.proc)
	}
}

// Send transmits data to dest at its length: SendVal(dest, tag, data,
// len(data)).
func (c *Comm) Send(dest, tag int, data []byte) error { return c.SendVal(dest, tag, data, len(data)) }

// SendVal transmits the value v to dest (a comm rank) with the given tag,
// priced as a message of size bytes: v's wire size, which the caller
// declares. The caller is busy for the wire time. Sends are eager/buffered:
// delivery does not require a posted receive, and the receiver gets v itself.
// A negative size is refused before anything is sent; every other error is
// raised through the error handler.
func (c *Comm) SendVal(dest, tag int, v any, size int) error {
	if size < 0 {
		return fmt.Errorf("mpi: SendVal: message to rank %d has a negative size, %d", dest, size)
	}
	return c.raise(c.transmit(dest, tag, v, size))
}

// transmit is the one body of every point-to-point send: it allocates the
// cluster's next flow id, traces the send as send.begin/send.end under it and
// delivers the message after the wire time.
func (c *Comm) transmit(dest, tag int, v any, size int) error {
	st := c.st
	if st.revoked {
		return ErrRevoked
	}
	dworld := st.group[dest]
	if !st.w.ranks[dworld].alive {
		return &ProcFailedError{Ranks: []int{dworld}}
	}
	st.w.Clus.FlowID++
	flow := st.w.Clus.FlowID
	c.r.obs.MPI.Sent(size)
	if rec := c.r.obs.Rec; rec != nil {
		rec.SendBegin(dworld, tag, size)
		defer rec.SendEnd(dworld, tag, size, flow)
	}
	c.r.proc.Sleep(st.w.Clus.TransferCost(size))
	if st.w.aborted {
		return ErrAborted
	}
	if st.revoked {
		return ErrRevoked
	}
	// Deliver (drop silently if the receiver died during the transfer —
	// eager sends complete locally).
	if st.w.ranks[dworld].alive {
		st.deliver(dest, &Message{Src: c.rank, Tag: tag, Val: v, Size: size, id: flow})
	}
	return nil
}

// deliver places msg in dest's mailbox, handing it to dest's parked receive
// if that accepts it.
func (st *commState) deliver(dest int, msg *Message) {
	box := st.boxes[dest]
	if rw := box.parked(); rw != nil && accepts(rw.src, rw.tag, msg) {
		st.complete(box, rw, msg, nil)
		return
	}
	box.pushMsg(msg)
}

// complete finishes box's parked receive rw with a message (delivery) or an
// error (failure notification, revocation) and wakes its process.
func (st *commState) complete(box *mailbox, rw *recvWait, msg *Message, err error) {
	rw.msg, rw.err = msg, err
	box.retire(rw)
	st.w.Sim.Wake(rw.p)
}

// Recv blocks until a message with tag arrives from src, a comm rank: a
// receive names its source, and a source outside the communicator (AnySource
// included) is refused before anything is posted. Per MPI-3 + ULFM
// semantics, a receive from a failed source errors immediately unless a
// matching message was already buffered.
func (c *Comm) Recv(src, tag int) (*Message, error) {
	if src < 0 || src >= c.Size() {
		return nil, fmt.Errorf("mpi: Recv names source %d of %d ranks", src, c.Size())
	}
	m, err := c.recv(src, tag)
	return m, c.raise(err)
}

func (c *Comm) recv(src, tag int) (*Message, error) {
	st := c.st
	if st.revoked {
		return nil, ErrRevoked
	}
	box := st.boxes[c.rank]
	if m := box.matchBuffered(src, tag); m != nil {
		c.tookBuffered(src, tag, m)
		return m, nil
	}
	srcWorld := st.group[src]
	if !st.w.ranks[srcWorld].alive {
		return nil, &ProcFailedError{Ranks: []int{srcWorld}}
	}
	rec := c.r.obs.Rec
	if rec != nil {
		rec.RecvBegin(srcWorld, tag)
	}
	rw := &recvWait{p: c.r.proc, src: src, tag: tag}
	box.post(rw)
	for !rw.done {
		c.r.proc.Park()
		if st.w.aborted && !rw.done {
			box.retire(rw)
			rec.RecvEnd(srcWorld, tag, 0, 0)
			return nil, ErrAborted
		}
	}
	if rw.err != nil {
		rec.RecvEnd(srcWorld, tag, 0, 0)
		return nil, rw.err
	}
	c.r.obs.MPI.Received(rw.msg.Size)
	if rec != nil {
		rec.RecvEnd(srcWorld, tag, rw.msg.Size, rw.msg.id)
	}
	return rw.msg, nil
}

// TryRecv is a non-blocking receive (MPI_Iprobe + MPI_Recv). ok=false when
// no matching message is buffered.
func (c *Comm) TryRecv(src, tag int) (*Message, bool, error) {
	if c.st.revoked {
		return nil, false, c.raise(ErrRevoked)
	}
	m := c.st.boxes[c.rank].matchBuffered(src, tag)
	if m == nil {
		return nil, false, nil
	}
	c.tookBuffered(src, tag, m)
	return m, true, nil
}

// tookBuffered accounts a receive that a buffered message satisfied on the
// spot: the byte counter, and recv.begin/recv.end at one instant, naming the
// posted source as a world rank (AnySource for TryRecv's wildcard).
func (c *Comm) tookBuffered(src, tag int, m *Message) {
	c.r.obs.MPI.Received(m.Size)
	if rec := c.r.obs.Rec; rec != nil {
		srcWorld := AnySource
		if src != AnySource {
			srcWorld = c.st.group[src]
		}
		rec.RecvBegin(srcWorld, tag)
		rec.RecvEnd(srcWorld, tag, m.Size, m.id)
	}
}
