package core

import (
	"errors"
	"fmt"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/mpi"
)

// Handle is the submission-side view of a running application: the bench
// harness launches an application, drives the simulation, and then reads
// the per-job Results.
type Handle struct {
	Clus  *cluster.Cluster // the simulated cluster the application runs on
	World *mpi.World       // the launch world (pre-shrink communicator state)

	appN    int
	results []*Result
	jobs    []*jobShare // per job index: what every rank of the job derives alike
	phaseCb []func(worldRank int, ph Phase)
	noted   map[int]bool
	// merged, when set, sees each rank's partitions as a shuffle merge
	// leaves them (a mirroring shadow's are its pair's); tests set it.
	merged func(worldRank int, parts map[int]*kvbuf.KV)
	// labels is partitionLog's scratch, two entries per partition of the
	// widest job so far. Ranks run one at a time, and neither partitionLog nor
	// its callers park while they use it, so one serves every rank of the
	// application.
	labels []int32
}

// jobShare is what every rank of one job derives alike (§3.3: the masters
// compute identical tables without coordinating): the first rank that needs a
// piece makes it, and every rank shares it, read-only.
type jobShare struct {
	tasks      []Task     // the input task list
	firstTasks *ownerPlan // task -> the rank it starts on
	firstParts *ownerPlan // partition -> the rank it starts on
}

// App is one rank's context inside a launched application. The driver
// function runs identically on every rank (SPMD) and submits jobs through
// it; under detect/resume the communicator shrinks across failures and
// subsequent jobs run on the survivors.
type App struct {
	h      *Handle
	comm   *mpi.Comm
	jobIdx int
	bufs   rankBufs // the rank's refill buffers, which outlive its jobs
}

// rankBufs are a rank's refill buffers: each holds one operation's bytes and
// is refilled by the next, so a rank allocates only for an operation larger
// than any before it, across the jobs of its application too. The per-pair
// label slabs and the value window are not among them: they are sized by one
// pass's pairs and live through reduce, so kept here they would stay live
// between jobs.
type rankBufs struct {
	// chunk is the map input chunk being read (openChunk). It holds a
	// whole chunk, so the map phase drops it when it ends.
	chunk []byte
	// out is the reduce output batch not yet committed.
	out outputWriter
}

// Launch starts an application of n ranks running driver on clus. The
// caller drives clus.Sim.Run() and then inspects Results.
func Launch(clus *cluster.Cluster, n int, driver func(app *App)) *Handle {
	if n <= 0 || n > clus.Slots() {
		panic(fmt.Sprintf("core: cannot launch %d ranks on a cluster with %d slots", n, clus.Slots()))
	}
	h := &Handle{Clus: clus, appN: n, noted: make(map[int]bool)}
	h.World = mpi.Launch(clus, n, func(c *mpi.Comm) {
		driver(&App{h: h, comm: c})
	})
	return h
}

// RunSingle launches an application that runs exactly one job.
func RunSingle(clus *cluster.Cluster, spec Spec) *Handle {
	return Launch(clus, spec.NumRanks, func(app *App) {
		_, _ = app.RunJob(spec)
	})
}

// Results returns the per-job results in submission order.
func (h *Handle) Results() []*Result { return h.results }

// Result returns the single result of a RunSingle application (nil if the
// job never started).
func (h *Handle) Result() *Result {
	if len(h.results) == 0 {
		return nil
	}
	return h.results[0]
}

// OnPhase registers a callback fired when any rank enters a phase; the
// failure injector uses it to kill processes at a chosen point.
func (h *Handle) OnPhase(fn func(worldRank int, ph Phase)) { h.phaseCb = append(h.phaseCb, fn) }

func (h *Handle) notifyPhase(worldRank int, ph Phase) {
	for _, fn := range h.phaseCb {
		fn(worldRank, ph)
	}
}

// resultSlot returns (creating on first arrival) the Result for job index.
func (h *Handle) resultSlot(idx int, spec Spec) *Result {
	for len(h.results) <= idx {
		h.results = append(h.results, nil)
	}
	if h.results[idx] == nil {
		h.results[idx] = &Result{
			Spec:  spec,
			Start: h.Clus.Sim.Now(),
			End:   h.Clus.Sim.Now(),
			Ranks: make([]*RankMetrics, h.appN),
		}
	}
	return h.results[idx]
}

// share returns job idx's shared state, empty until a rank fills it in.
func (h *Handle) share(idx int) *jobShare {
	for len(h.jobs) <= idx {
		h.jobs = append(h.jobs, &jobShare{})
	}
	return h.jobs[idx]
}

// firstParts returns job idx's first partition plan: partition i starts on
// homes[i], which every rank of the job holds alike.
func (h *Handle) firstParts(idx int, homes []int) *ownerPlan {
	js := h.share(idx)
	if js.firstParts == nil {
		owner := make([]int32, len(homes))
		for part, w := range homes {
			owner[part] = int32(w)
		}
		js.firstParts = newOwnerPlan(owner)
	}
	return js.firstParts
}

// firstTasks returns job idx's input task list, enumerating the chunk files
// under prefix on first use, and its first task plan (firstTaskPlan over
// homes). Every master computes the identical list (§3.3), so one host-side
// enumeration serves all the job's ranks.
func (h *Handle) firstTasks(idx int, prefix string, homes []int) ([]Task, *ownerPlan) {
	js := h.share(idx)
	if js.firstTasks == nil {
		js.tasks = listChunks(h.Clus.PFS.List(prefix), h.Clus.PFS.Size)
		js.firstTasks = firstTaskPlan(len(js.tasks), homes)
	}
	return js.tasks, js.firstTasks
}

// partLabels returns partitionLog's scratch for n partitions.
func (h *Handle) partLabels(n int) []int32 {
	if len(h.labels) < 2*n {
		h.labels = make([]int32, 2*n)
	}
	return h.labels[:2*n]
}

func (j *jobCtx) noteFailed(ranks []int) {
	for _, r := range ranks {
		if !j.h.noted[r] {
			j.h.noted[r] = true
			j.res.FailedRanks = append(j.res.FailedRanks, r)
		}
	}
}

// recoverable reports whether the detect/resume loop can mask err.
func recoverable(err error) bool {
	return errors.Is(err, mpi.ErrRevoked) || mpi.IsProcFailed(err)
}

// RunJob executes one MapReduce job on the application's current
// communicator and returns its Result. Under ModelNone and
// ModelCheckpointRestart a failure aborts the whole application (the rank
// processes unwind and RunJob never returns on any rank); the Result,
// marked Aborted, remains readable from the Handle. Under the detect/resume
// models failures are masked in place and RunJob returns normally on the
// survivors — a job that loses every rank before one returns is Aborted too.
func (a *App) RunJob(spec Spec) (*Result, error) {
	spec = spec.withDefaults()
	if spec.NumRanks == 0 {
		spec.NumRanks = a.comm.Size()
	}
	res := a.h.resultSlot(a.jobIdx, spec)
	a.jobIdx++

	// Iterative restart: a completed job (durable DONE marker) is skipped. Its
	// outputs are the partitions the committed attempt left.
	pfs := a.h.Clus.PFS
	if spec.Resume && pfs.Exists(doneMarker(spec.JobID)) {
		pfs.Charge(a.comm.Proc(), 1, 0)
		res.End = max(res.End, a.h.Clus.Sim.Now())
		res.OutputPaths = pfs.List(fmt.Sprintf("out/%s/", spec.JobID))
		// Still anchor the (trivial) job on this rank's timeline so the
		// critical-path walk sees every job bracketed.
		rec := a.comm.Self().Obs().Rec
		rec.JobBegin(spec.JobID)
		rec.JobEnd(spec.JobID, false)
		return res, nil
	}

	j := &jobCtx{clus: a.h.Clus, spec: spec, res: res, h: a.h, jobIdx: a.jobIdx - 1}
	r := newRunner(j, a.comm, &a.bufs)
	r.obs.Rec.JobBegin(spec.JobID)
	res.Ranks[r.myWorld()] = r.m
	defer r.shutdown()
	mark := func() { res.End = max(res.End, a.h.Clus.Sim.Now()) }
	// fail marks the attempt failed as of now, unless a rank already has.
	fail := func() {
		if !res.Aborted {
			res.Aborted = true
			mark()
		}
	}
	abort := func(err error) (*Result, error) {
		res.Aborted = true
		mark()
		r.obs.Rec.JobEnd(spec.JobID, true)
		return res, err
	}

	masking := spec.Model.DetectResume()
	defer a.armFailure(j, r.myWorld(), masking, fail)()

	for {
		err := r.run()
		if err == nil {
			err = r.close(masking)
		}
		if err == nil {
			break
		}
		if !masking || !recoverable(err) {
			return abort(err)
		}
		if err := r.recover(); err != nil {
			return abort(err)
		}
	}
	// Persist the (possibly shrunken) communicator for later jobs.
	a.comm = r.comm
	res.finishers++
	mark()
	// The final-commit anchor: emitted after the DONE marker is durable, so
	// the latest job.end across ranks is the critical-path sink.
	r.obs.Rec.JobEnd(spec.JobID, false)
	return res, nil
}

// armFailure installs how a failure of or seen by this rank (world rank me)
// reaches the job: the model's error handler and, for every model, one kill
// hook. It returns the function that disarms the hook once RunJob returns.
func (a *App) armFailure(j *jobCtx, me int, masking bool, fail func()) (disarm func()) {
	if masking {
		a.comm.SetErrHandler(drErrHandler)
	} else {
		// MR-MPI mode and checkpoint/restart: exploit MPI-3 error-handler
		// semantics (§2.4) — the first rank to observe the failure marks
		// the job failed and aborts; the process manager propagates the
		// termination to everyone.
		a.comm.SetErrHandler(func(c *mpi.Comm, err error) {
			fail()
			c.Abort()
		})
	}
	// If this rank itself is killed before the job completes, nobody may be
	// left to observe the failure (a single-rank job; a masking one's last
	// survivor): the attempt is a failed one, unless the model masks failures
	// and a rank has finished the job or is left to carry it. This rank's own
	// flag is discounted: mpi's kill hook may clear it before or after. A
	// masking job lists the rank as lost either way — also when it dies after
	// the closing shrink has decided, where no recovery round will see it.
	returned := false
	a.comm.Proc().OnKill(func() {
		if returned {
			return
		}
		self := 0
		if a.h.World.RankAlive(me) {
			self = 1
		}
		if masking {
			j.noteFailed([]int{me})
		}
		if !(masking && (j.res.finishers > 0 || a.h.World.AliveCount() > self)) {
			fail()
		}
	})
	return func() { returned = true }
}
