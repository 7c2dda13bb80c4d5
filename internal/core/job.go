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
	tasks   [][]Task // per job index: the input task list (see jobTasks)
	phaseCb []func(worldRank int, ph Phase)
	noted   map[int]bool
	// merged, when set, sees each rank's partitions as a shuffle merge
	// leaves them (a mirroring shadow's are its pair's); tests set it.
	merged func(worldRank int, parts map[int]*kvbuf.KV)
}

// App is one rank's context inside a launched application. The driver
// function runs identically on every rank (SPMD) and submits jobs through
// it; under detect/resume the communicator shrinks across failures and
// subsequent jobs run on the survivors.
type App struct {
	h      *Handle
	comm   *mpi.Comm
	jobIdx int
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

// jobTasks returns the input task list of job idx, enumerating the chunk
// files under prefix on first use. Every master computes the identical list
// (§3.3), so one host-side enumeration serves all the job's ranks; the slice
// is shared and read-only.
func (h *Handle) jobTasks(idx int, prefix string) []Task {
	for len(h.tasks) <= idx {
		h.tasks = append(h.tasks, nil)
	}
	if h.tasks[idx] == nil {
		h.tasks[idx] = listChunks(h.Clus.PFS.List(prefix), h.Clus.PFS.Size)
	}
	return h.tasks[idx]
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
	r := newRunner(j, a.comm)
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
