package core

import (
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/obs"
	"ftmrmpi/internal/vtime"
)

// User-level message tags (non-negative; negative tags are MPI-internal).
// Each job uses a distinct status tag so stale gossip from an earlier job
// in the same application can never be matched by a later one.
const tagStatusBase = 1

// Phase indexes for the resumable phase loop.
const (
	phInit = iota
	phMap
	phShuffle
	phConvert
	phReduce
	phDone
)

var phaseNames = []Phase{PhaseInit, PhaseMap, PhaseShuffle, PhaseConvert, PhaseReduce}

// CPU cost constants for library-internal work (seconds per byte).
const (
	restoreCPUPerByte   = 1.5e-10 // re-injecting checkpointed KV
	convertCPUPerByte   = 4e-10   // KV→KMV grouping work
	partitionCPUPerByte = 1e-10   // hash-partitioning emitted pairs
)

// skipCostFactor is the CPU cost of skipping one already-committed record
// during recovery, as a fraction of Mapper.Cost (§4.1.2: "read the input data
// and skip the processed records, which is much cheaper than reprocessing").
const skipCostFactor = 0.05

// runner executes one job on one rank. It survives detect/resume
// recoveries: its communicator handle is replaced and its phase index may
// move backwards, but its in-memory data (map output, received partitions)
// persists.
type runner struct {
	job  *jobCtx
	spec Spec
	comm *mpi.Comm
	p    *vtime.Proc
	m    *RankMetrics
	obs  *obs.Handle // the rank's trace/metrics/introspection handle (never nil)

	world0 []int // world ranks participating at job start (the communicator's shared group: read-only)
	tt     *taskTable
	nParts int // partition count (== len(world0))
	// partOwner is partition -> world rank: the plan the job's ranks share
	// (the first one, homes; after a recovery round, the round's) and what
	// this rank has reassigned since.
	partOwner ownerTable
	homes     []int // the first plan's partition owners, a prefix of world0: hash slot -> the rank its tasks start on

	log        kvbuf.Log          // this rank's map output, in emission order; the shuffle partitions it
	parts      map[int]*kvbuf.KV  // owned partition -> merged shuffle data
	kmv        map[int]*kvbuf.KMV // owned partition -> converted groups
	reduceDone map[int]uint32     // partition -> committed group count
	outLen     map[int]uint64     // partition -> committed output bytes
	shuffled   bool               // owned partitions hold merged data

	phase int
	role  *role // what the phases run as: rebuilt only when a failover promotes this rank

	ck           *ckptStore
	rep          *replicator // nil when Spec.ReplicaK == 0
	ftm          *ftState    // nil unless a replication execution model is active
	lb           lbAgent
	backlogBytes float64 // bytes of input work remaining (for balancing)

	statusTag int

	bufs *rankBufs // the rank's refill buffers (App.bufs): shared with its other jobs
}

// jobCtx is one rank's view of the job it is running (each rank's RunJob
// builds its own; what the ranks of a job share lives on the Handle).
type jobCtx struct {
	clus   *cluster.Cluster
	spec   Spec
	res    *Result
	h      *Handle
	jobIdx int
}

func newRunner(j *jobCtx, c *mpi.Comm, bufs *rankBufs) *runner {
	spec := j.spec
	world0 := c.Group()
	m := newRankMetrics(c.Self().WorldRank())
	h := c.Self().Obs()
	h.BindCore()
	mirrorRankMetrics(j.clus.Metrics, m)
	r := &runner{
		job:        j,
		spec:       spec,
		comm:       c,
		p:          c.Proc(),
		m:          m,
		obs:        h,
		world0:     world0,
		nParts:     c.Size(),
		homes:      world0,
		parts:      make(map[int]*kvbuf.KV),
		kmv:        make(map[int]*kvbuf.KMV),
		reduceDone: make(map[int]uint32),
		outLen:     make(map[int]uint64),
		statusTag:  tagStatusBase + j.jobIdx,
		bufs:       bufs,
	}
	if ftm := newFTState(j, c, spec); ftm != nil {
		// Replication execution model: only the primary slots partition the
		// key space; shadows mirror a slot and own nothing.
		r.ftm = ftm
		r.nParts = len(ftm.acting)
		// The acting primaries start as the first nParts ranks.
		r.homes = world0[:r.nParts]
	}
	r.partOwner = ownerTable{plan: j.h.firstParts(j.jobIdx, r.homes)}
	r.lb.kind = spec.LBModel
	clus := j.clus
	r.ck = newCkptStore(clus, c.Self().WorldRank(), spec, m, h)
	r.ck.enabled = r.ck.enabled && !r.mirroring()
	r.ck.agent = &r.lb
	if copier := r.ck.proc; copier != nil {
		// The copier is a thread of the rank process: it dies with it, so
		// un-drained local checkpoints are genuinely lost on failure.
		c.Proc().OnKill(func() { clus.Sim.Kill(copier) })
	}
	if spec.ReplicaK > 0 && r.ck.enabled {
		r.rep = newReplicator(r, spec.ReplicaK)
		r.ck.rep = r.rep
	}
	if r.mirroring() {
		r.role = r.mirrorRole()
	} else {
		r.role = r.primaryRole()
	}
	return r
}

// compute charges user/library CPU seconds on the rank's core.
func (r *runner) compute(sec float64) {
	if sec <= 0 {
		return
	}
	t0 := r.p.Now()
	r.comm.Self().Compute(r.p, sec)
	r.m.CPUMain += r.p.Now() - t0
}

// net wraps a communication call and accounts its duration.
func (r *runner) net(fn func() error) error {
	t0 := r.p.Now()
	err := fn()
	r.m.NetWait += r.p.Now() - t0
	return err
}

// allreduce is the accounted form of Comm.AllreduceInt64: the ranks' small
// agreement rounds (skip the exchange? regenerate the lost partitions?).
func (r *runner) allreduce(v int64, op func(a, b int64) int64) (out int64, err error) {
	err = r.net(func() error {
		out, err = r.comm.AllreduceInt64(v, op)
		return err
	})
	return out, err
}

// myWorld returns this rank's world rank.
func (r *runner) myWorld() int { return r.comm.Self().WorldRank() }

// role is everything that distinguishes a mirroring shadow from a primary
// (or a plain rank) inside the phase bodies: which task and partition ids the
// rank works on, and what recording a unit of progress means — durable
// appends, checkpoint frames and gossip for a primary; staging in memory for
// a shadow. The phase bodies themselves never ask which of the two they run
// as. Block routing in the shuffle is the only other per-model code.
type role struct {
	tasks   func() []int                                               // map tasks still to run
	mapTask func(id int, mapper Mapper, reader FileRecordReader) error // run one and record its completion

	parts    func() []int                                                    // partitions to convert and reduce, ascending
	reduced  func(part int) uint32                                           // groups of part already committed
	group    func()                                                          // one more group went through the reducer
	commit   func(part int, stream, path string, g uint32, out []byte) error // groups [reduced, g) are done, with output out; stream is part's checkpoint stream, path its output file
	partDone func(took time.Duration)                                        // a partition's last group is committed

	fold func() // bank what peers pushed here; runs at every phase boundary
}

// mirroring reports whether this rank currently runs as a dedicated shadow.
func (r *runner) mirroring() bool { return r.ftm != nil && r.ftm.mirror }

// primaryRole is the role of a rank that owns tasks and partitions: every
// rank of a checkpoint-only job, and the acting primaries of a replicated
// one. What it binds (r.rep, fixed once newRunner returns) lasts the
// runner's life.
func (r *runner) primaryRole() *role {
	return &role{
		tasks:    func() []int { return r.tt.mine(r.myWorld()) },
		mapTask:  r.ownMapTask,
		parts:    r.ownedParts,
		reduced:  func(part int) uint32 { return r.reduceDone[part] },
		group:    func() { r.m.GroupsReduced++ },
		commit:   r.commitOutput,
		partDone: func(took time.Duration) { r.obs.Core.ReducePart.Observe(took.Seconds()) },
		fold:     r.rep.drain,
	}
}

// run executes phases from the current phase index to completion. On a
// communication error it returns immediately; the caller decides whether to
// recover (detect/resume) or give up (checkpoint/restart and MR-MPI mode).
func (r *runner) run() error {
	for r.phase < phDone {
		ph := phaseNames[r.phase]
		// A shadow becomes a primary only inside recovery (promotion), so the
		// role never changes under a running phase.
		ro := r.role
		r.job.h.notifyPhase(r.myWorld(), ph)
		t0 := r.p.Now()
		r.obs.PhaseBegin(string(ph))
		var err error
		switch r.phase {
		case phInit:
			if err = r.phaseInit(); err == nil {
				// Checkpoint/restart resume: restore this rank's partition
				// state (and truncate uncommitted output) before any work.
				r.resumePrepare()
			}
		case phMap:
			err = r.phaseMap(ro)
		case phShuffle:
			err = r.phaseShuffle()
		case phConvert:
			err = r.phaseConvert(ro)
		case phReduce:
			err = r.phaseReduce(ro)
		}
		r.m.PhaseTime[ph] += r.p.Now() - t0
		r.obs.Rec.PhaseEnd(string(ph))
		if err != nil {
			return err
		}
		// Fold banked pushes in at every phase boundary (replica frames on a
		// primary, reduce-progress sync records on a shadow): the barrier that
		// just completed guarantees every pre-barrier eager push has been
		// delivered to this rank's mailbox.
		ro.fold()
		r.phase++
	}
	return nil
}

// shutdown stops agent threads.
func (r *runner) shutdown() { r.ck.stop() }

// ---------------------------------------------------------------- phases --

// startTasks returns a task table of tasks, none done, each starting on its
// slot's partition owner: homes, as the job's first plans first say (first
// for the tasks, firstParts for the partitions), unless init runs again: only
// a pure failover resumes here, and it has left the promoted shadow owning
// its slot's partition.
func (r *runner) startTasks(tasks []Task, first, firstParts *ownerPlan) *taskTable {
	tt := newTaskTable(tasks, first)
	if r.partOwner.pristine(firstParts) {
		return tt
	}
	for slot, home := range r.homes {
		if w := r.partOwner.of(slot); w != home {
			for _, id := range first.idsOf(home) {
				tt.setOwner(int(id), w)
			}
		}
	}
	return tt
}

// phaseInit builds the deterministic task table (§3.3: every master
// enumerates and splits the input identically, so no coordination is
// needed) and charges the metadata cost.
func (r *runner) phaseInit() error {
	clus := r.job.clus
	h, idx := r.job.h, r.job.jobIdx
	tasks, first := h.firstTasks(idx, r.spec.InputPrefix, r.homes)
	r.tt = r.startTasks(tasks, first, h.firstParts(idx, r.homes))
	// Metadata traversal: one PFS op per 64 chunks.
	r.m.IOWait += clus.PFS.Charge(r.p, len(tasks)/64+1, 0)
	for _, id := range r.tt.mine(r.myWorld()) {
		r.backlogBytes += float64(r.tt.tasks[id].Chunk.Size)
	}
	return r.net(func() error { return r.comm.Barrier() })
}
