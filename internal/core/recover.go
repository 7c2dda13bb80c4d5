package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/mpi"
)

// ----------------------------------------------------------- DR recovery --

// drErrHandler is the detect/resume error handler: the first rank to see a
// process failure revokes the communicator, interrupting everyone (§4.2.1).
func drErrHandler(c *mpi.Comm, err error) {
	var pf *mpi.ProcFailedError
	if errors.As(err, &pf) {
		c.Self().Obs().Rec.FailureDetect(pf.Ranks)
		if !c.Revoked() {
			_ = c.Revoke()
		}
	}
}

// maxRecoveryAttempts only guards against a livelock bug — with at most one
// failure per attempt, convergence needs at most as many passes as there are
// ranks left to lose.
const maxRecoveryAttempts = 64

// recover masks a failure in place: shrink the communicator, rebuild the
// global state, redistribute the failed processes' work, and rewind the
// phase index as far as the lost data requires (§4.2.2). Overlapping
// failures are the norm under continuous injection, so recovery is
// restartable, not merely runnable: each further attempt masks one more
// failure that landed during the previous one.
func (r *runner) recover() error {
	for attempt := 1; ; attempt++ {
		t0 := r.p.Now()
		r.obs.Core.RecoveryAttempts.Inc()
		// Surface the recovery window to phase observers (the failure injector
		// uses this to aim kills *inside* recovery).
		r.job.h.notifyPhase(r.myWorld(), PhaseRecovery)
		// Every survivor passes through here exactly once per attempt: record
		// the detect→revoke observation before the shrink/agree steps the Shrink
		// call emits, so each survivor's stream shows the full causal chain.
		r.obs.Rec.RecoveryBegin()
		r.obs.Rec.FailureDetect(nil)
		r.obs.Rec.Revoke("observed")
		if attempt > 1 {
			// A second death interrupted the previous attempt. Re-revoke so the
			// new failure epoch floods to every survivor — including ones still
			// parked in the failed attempt's collectives — before re-entering
			// Shrink. (The simulated flood cannot fail.)
			_ = r.comm.Revoke()
		}
		err := r.recoverOnce()
		// Close the attempt's span, failed or not: a restarted attempt opens a
		// fresh one. (A kill unwinds past this, correctly leaving the dead
		// rank's span open.)
		d := r.p.Now() - t0
		r.m.Recovery.Init += d
		r.m.PhaseTime[PhaseRecovery] += d
		r.obs.Rec.RecoveryStage("init", d)
		r.obs.Rec.RecoveryEnd()
		switch {
		case err == nil, !recoverable(err):
			return err
		case attempt >= maxRecoveryAttempts:
			return fmt.Errorf("core: recovery did not converge after %d attempts: %w", attempt, err)
		}
	}
}

// recoverOnce is one attempt on the revoked communicator: the protocol
// (shrink, promote, allgather the claims and fold them once into the round's
// plan), this rank's share of the plan, and the effect of the decision it
// names.
func (r *runner) recoverOnce() error {
	newComm, err := r.comm.Shrink()
	if err != nil {
		return err
	}
	failed := r.adoptComm(newComm)

	// Replication failover happens here — after the shrink agreed on the
	// failed set, before claims are exchanged. Pure local compute on every
	// survivor (promotion edits only this rank's claims), so an interrupting
	// failure can never leave survivors with diverged pairings: the retry
	// re-applies promotion for the larger failed set idempotently.
	if err := r.ftPromote(failed); err != nil {
		return err
	}

	// Exchange survivor state (§3.3: the masters' globally consistent state
	// is what recovery is built on). The survivor that completes the gather
	// folds the states into the plan, once, and every survivor receives it.
	st := r.state()
	rp := roundPlanner{
		tasks:        r.tt.tasks,
		nParts:       r.nParts,
		jobIdx:       r.job.jobIdx,
		checkpointed: r.spec.Model.Checkpointing(),
		replicating:  r.ftm != nil,
		balanced:     r.spec.LoadBalance,
	}
	c := r.comm
	fold := func(all []any) any {
		pl, err := rp.plan(all, c.Group())
		if err != nil {
			return err
		}
		return pl
	}
	var res any
	if err := r.net(func() (e error) { res, e = r.comm.AllgatherFold(st, st.size(), fold); return e }); err != nil {
		return err
	}
	pl, ok := res.(*recoveryPlan)
	if !ok {
		return res.(error)
	}
	if pl.done {
		r.phase = phDone
		return nil
	}
	pl.apply(r.tt, &r.partOwner)

	d := pl.decision
	switch d {
	case adopt:
		d, err = r.adoptLost(pl)
	case remap:
		// Unclaimed partitions (no data yet, or none that can be restored)
		// get owners so the shuffle has destinations.
		r.spread("parts", pl.lostParts, pl.partsTo, r.ownPart)
		err = r.remapLost(pl)
	}
	if err != nil {
		return err
	}
	r.phase = d.resumeAt(pl.minPhase)
	return nil
}

// recoveryPlan is the global state a recovery round rebuilds from the
// survivors' claims. One survivor computes it per round and every survivor
// shares it, read-only.
type recoveryPlan struct {
	// done: a survivor is past the final barrier, so every rank had finished
	// the job's work and its outputs are durable — nothing is lost, and the
	// survivors go straight to closing the job. Nothing else is set then.
	done      bool
	minPhase  int        // the earliest phase a survivor is in
	models    []lbModel  // the survivors' load models, in communicator order
	doneBits  []byte     // the survivors' done bitmaps merged, in taskTable.done's form
	taskOwner *ownerPlan // task -> the survivor that claims it, -1 when none does
	partOwner *ownerPlan // partition -> the survivor whose memory holds it, -1 when none does
	lostParts []int      // the partitions no survivor holds, ascending
	// The tasks no survivor claims, ascending, and how many are pending: those
	// must re-run somewhere; the completed ones hold their output only in dead
	// memory and matter only when the map output is needed again (remap).
	lostTasks   []int
	lostPending int

	// What the round does with the lost work, and how remap deals it out:
	// per survivor, in communicator order, indices into lostParts (remap) and
	// lostTasks (adopt, which may fall to remap, or remap). See deal.
	decision decision
	partsTo  [][]int
	tasksTo  [][]int
}

// roundPlanner holds what a round's plan derives from besides the claims:
// values every rank of the job holds alike, so whichever survivor completes
// the gather can plan for all of them.
type roundPlanner struct {
	tasks        []Task // the job's task list (Handle.firstTasks: one shared slice)
	nParts       int
	jobIdx       int
	checkpointed bool // WC: lost tasks restore, lost partitions may be adopted
	replicating  bool // a replication model runs: nothing lost means failover
	balanced     bool // Spec.LoadBalance: deal by the load models, not evenly
}

// plan takes the survivors' allgathered states (all[i] is world rank
// group[i]'s survivorState) and returns the round's plan, decided and dealt,
// or the error a state from another job makes. Every survivor is in the same
// job: a rank leaves one only through its closing shrink, which every live
// rank of the job enters.
func (rp *roundPlanner) plan(all []any, group []int) (*recoveryPlan, error) {
	states := make([]survivorState, len(all))
	for i, v := range all {
		if states[i] = v.(survivorState); states[i].jobIdx != rp.jobIdx {
			// The closing shrink holds every live rank in a job until all leave it.
			return nil, fmt.Errorf("core: recovery of job %d met a survivor in job %d", rp.jobIdx, states[i].jobIdx)
		}
	}
	pl := rebuild(states, group, rp.tasks, rp.nParts)
	if !pl.done {
		pl.decision = pl.decide(rp.checkpointed, rp.replicating)
		pl.deal(rp.tasks, rp.checkpointed, rp.balanced)
	}
	return pl, nil
}

// rebuild computes a round's global state purely from the allgathered claims
// (see survivorState): states[i] is world rank group[i]'s. It merges the done
// bitmaps and collects the task and partition claims; whatever no survivor
// claims is lost.
func rebuild(states []survivorState, group []int, tasks []Task, nParts int) *recoveryPlan {
	pl := &recoveryPlan{minPhase: phDone, models: make([]lbModel, len(states))}
	for i, s := range states {
		pl.models[i] = s.model
		pl.minPhase = min(pl.minPhase, s.phase)
		pl.done = pl.done || s.phase == phDone
	}
	if pl.done {
		return pl
	}
	merged := newTaskTable(tasks, nil)
	taskOwner, partOwner := make([]int32, len(tasks)), make([]int32, nParts)
	for id := range taskOwner {
		taskOwner[id] = -1
	}
	for part := range partOwner {
		partOwner[part] = -1
	}
	for i, s := range states {
		merged.mergeBitmap(s.doneBitmap)
		for _, p := range s.parts {
			partOwner[p] = int32(group[i])
		}
		for _, t := range s.tasks {
			taskOwner[t] = int32(group[i])
		}
	}
	pl.doneBits = merged.done
	pl.taskOwner, pl.partOwner = newOwnerPlan(taskOwner), newOwnerPlan(partOwner)
	for part, o := range partOwner {
		if o < 0 {
			pl.lostParts = append(pl.lostParts, part)
		}
	}
	for id, o := range taskOwner {
		if o < 0 {
			pl.lostTasks = append(pl.lostTasks, id)
			if !merged.isDone(id) {
				pl.lostPending++
			}
		}
	}
	return pl
}

// apply brings a survivor's own view in line with the plan: tt gains the
// merged done bits and each claimed task's claimant — a task nobody claims
// keeps its owner in the rank's view until an effect hands it out — and the
// rank's partition owners become the partition claims. The plan's shared
// tables become the rank's base: nothing is copied.
func (pl *recoveryPlan) apply(tt *taskTable, partOwner *ownerTable) {
	tt.mergeBitmap(pl.doneBits)
	tt.owner.adopt(pl.taskOwner, pl.lostTasks)
	partOwner.adopt(pl.partOwner, nil)
}

// deal computes, once for every survivor, how the lost work is handed out
// (§3.4): the lost partitions at weight one when the decision is remap, and
// the lost tasks by chunk size — cheaper when checkpoints make them
// restorable — whenever anything is lost, since adopt falls to remap when a
// snapshot survives nowhere. Adopt's own partition weights are the snapshots'
// PFS sizes: cluster state, which each survivor reads itself (adoptLost).
func (pl *recoveryPlan) deal(tasks []Task, checkpointed, balanced bool) {
	if pl.decision == failover {
		return
	}
	if pl.decision == remap {
		pl.partsTo = assign(pl.models, pl.lostParts, balanced, func(int) float64 { return 1 })
	}
	pl.tasksTo = assign(pl.models, pl.lostTasks, balanced, func(id int) float64 {
		size := float64(tasks[id].Chunk.Size)
		if checkpointed {
			// Restoring a committed task is cheaper than re-running it.
			size *= 0.3
		}
		return size
	})
}

// decision names what a recovery does with the work the failed ranks held.
type decision int

const (
	// failover: replication left nothing lost — the promoted shadows claimed
	// their pairs' tasks and partitions from their own memory. No
	// reassignment, no replay, no PFS restore, and no phase rewind beyond the
	// survivors' minimum.
	failover decision = iota
	// adopt: partition data was lost from memory after the shuffle, and with
	// checkpoints (WC) its new owners restore it from a replica or the PFS.
	// Falls to remap when a partition's snapshot survives nowhere.
	adopt
	// remap: "the surviving processes recover the lost work by re-running all
	// the tasks from the failed processes" — including completed tasks whose
	// output lived only in dead memory (restorably under WC) — and the map
	// output is exchanged again.
	remap
)

// postShuffle reports that every survivor has left the map phase and no lost
// task is outstanding.
func (pl *recoveryPlan) postShuffle() bool {
	return pl.minPhase >= phShuffle && pl.lostPending == 0
}

// decide names the plan's decision for a job that does or does not checkpoint
// (WC or NWC) and does or does not run a replication model.
func (pl *recoveryPlan) decide(checkpointed, replicating bool) decision {
	switch {
	case replicating && len(pl.lostParts)+len(pl.lostTasks) == 0:
		return failover
	case checkpointed && pl.postShuffle():
		return adopt
	}
	return remap
}

// resumeAt returns the phase the job resumes at, given the survivors'
// minimum. Adopted partitions restore their shuffle snapshot but must be
// re-converted (partitions already holding a KMV are skipped there): adopt
// rewinds (at most) to the convert phase.
func (d decision) resumeAt(minPhase int) int {
	switch d {
	case adopt:
		return min(minPhase, phConvert)
	case remap:
		return phMap
	}
	return minPhase
}

// rerun marks every lost task to run again — a completed one's output died
// with its owner — and returns their ids.
func (pl *recoveryPlan) rerun(tt *taskTable) []int {
	for _, id := range pl.lostTasks {
		tt.setDone(id, false)
	}
	return pl.lostTasks
}

// adoptLost is the adopt effect: survivors take the lost partitions, weighted
// by snapshot size, and restore them through the restore chain — unless the
// survivors agree a snapshot survives nowhere: then the map output must be
// regenerated and re-exchanged after all, and the decision made is remap.
func (r *runner) adoptLost(pl *recoveryPlan) (decision, error) {
	pfs := r.job.clus.PFS
	r.spread("parts", pl.lostParts, assign(pl.models, pl.lostParts, r.spec.LoadBalance, func(part int) float64 {
		if sz := pfs.Size(ckptPath(r.spec.JobID, partStream(part))); sz > 0 {
			return float64(sz)
		}
		return 1
	}), r.ownPart)
	// Hand the lost partitions' in-memory replicas to their new owners
	// before judging restorability, so peer-RAM copies count even when the
	// PFS copy is torn — or the whole tier is offline.
	if err := r.exchangeReplicas(partStream, pl.lostParts, r.partOwner.of); err != nil {
		return adopt, err
	}
	unrestorable, err := r.needRemapAgreed(pl.lostParts)
	if err != nil {
		return adopt, err
	}
	if unrestorable {
		return remap, r.remapLost(pl)
	}
	for _, part := range pl.lostParts {
		if r.partOwner.of(part) == r.myWorld() {
			r.restorePartition(part)
		}
	}
	return adopt, nil
}

// remapLost is the remap effect, once the lost partitions have owners: every
// lost task goes to a survivor to run again (with whatever replica of its
// checkpoint stream a survivor holds) and the lost partitions' reduce restarts
// from nothing — in the order each kind of failure has always had: resetLost
// can wait out a PFS outage and the hand-off sends and barriers, so swapping
// them moves every later instant.
func (r *runner) remapLost(pl *recoveryPlan) error {
	post := pl.postShuffle()
	if !post {
		r.resetLost(pl.lostParts)
	}
	lostTasks := pl.rerun(r.tt)
	r.redistributeTasks(lostTasks, pl.tasksTo)
	if err := r.exchangeReplicas(mapStream, lostTasks, r.tt.ownerOf); err != nil {
		return err
	}
	// Every rank must take part in the shuffle again so the re-run tasks'
	// output reaches its partitions; rebuilding is idempotent.
	r.shuffled = false
	if post {
		r.resetLost(pl.lostParts)
	}
	return nil
}

// resetLost restarts the reduce of this rank's share of the lost partitions
// from nothing (their data must first be regenerated).
func (r *runner) resetLost(lost []int) {
	for _, part := range lost {
		if r.partOwner.of(part) == r.myWorld() {
			r.reduceDone[part] = 0
			r.outLen[part] = 0
			r.truncateOutput(part)
		}
	}
}

// ownPart records world rank w as part's owner.
func (r *runner) ownPart(part, w int) { r.partOwner.set(part, w) }

// adoptComm moves the runner onto the communicator a shrink agreed on and
// records, and returns, the world ranks the old one had and it lacks.
func (r *runner) adoptComm(nc *mpi.Comm) (failed []int) {
	nc.SetErrHandler(drErrHandler)
	if nc.Size() < r.comm.Size() {
		// A shrink drops exactly the failed members and keeps the others in
		// order: one walk over both groups finds them.
		j := 0
		for i := range r.comm.Size() {
			if w := r.comm.WorldRank(i); j < nc.Size() && nc.WorldRank(j) == w {
				j++
			} else {
				failed = append(failed, w)
			}
		}
	}
	r.comm = nc
	r.job.noteFailed(failed)
	return failed
}

// spread hands the lost pieces ids out as assignment deals them (per
// survivor, in communicator order, indices into ids) and records each piece's
// new owner with own(id, world rank). Under a replication model work is
// never parked on a dedicated mirror: its acting primary owns it and the
// mirror follows.
func (r *runner) spread(what string, ids []int, assignment [][]int, own func(id, w int)) {
	if len(ids) == 0 {
		return
	}
	r.obs.Rec.LoadBalance(what, len(ids), r.comm.Size())
	for surv, pieceIdxs := range assignment {
		w := r.comm.WorldRank(surv)
		if r.ftm != nil {
			w = r.ftm.redirectToActing(w)
		}
		for _, pi := range pieceIdxs {
			own(ids[pi], w)
		}
	}
}

// assign deals the pieces ids out to the survivors the models stand for — by
// the load-balancer models when balanced (§3.4), evenly otherwise — and
// returns, per survivor, the indices into ids it gets.
func assign(models []lbModel, ids []int, balanced bool, weight func(id int) float64) [][]int {
	if len(ids) == 0 {
		return nil
	}
	if !balanced {
		return evenSplit(len(models), len(ids))
	}
	pieces := make([]float64, len(ids))
	for i, id := range ids {
		pieces[i] = weight(id)
	}
	return balanceWork(models, pieces)
}

// redistributeTasks hands unclaimed task ids (ascending) to survivors as
// assignment deals them, and adds this rank's share to its backlog.
func (r *runner) redistributeTasks(lostIDs []int, assignment [][]int) {
	r.spread("tasks", lostIDs, assignment, r.tt.setOwner)
	for _, id := range lostIDs {
		if r.tt.ownerOf(id) == r.myWorld() {
			r.backlogBytes += float64(r.tt.tasks[id].Chunk.Size)
		}
	}
}

// needRemapAgreed decides, identically on every survivor, whether the lost
// partitions must be regenerated (remap) instead of adopted from snapshots.
func (r *runner) needRemapAgreed(lost []int) (bool, error) {
	// With every holder of the restore chain shared and durable, the verdict
	// derives from state all survivors read alike, so each computes it locally
	// over all the lost partitions — no agreement round, and none is charged:
	// a run without the replica tier pays nothing for it here. A
	// holder in rank-private memory makes restorability depend on each new
	// owner's store, so verdicts can differ per rank: each owner judges its
	// own adopted partitions and the ranks agree by allreduce-max.
	private := slices.ContainsFunc(r.ck.chain(), holder.private)
	me := r.myWorld()
	local := int64(0)
	for _, part := range lost {
		if (!private || r.partOwner.of(part) == me) && !r.ck.holdsSnapshot(r.p, partStream(part)) {
			local = 1
			break
		}
	}
	if !private {
		return local == 1, nil
	}
	verdict, err := r.allreduce(local, func(a, b int64) int64 { return max(a, b) })
	return verdict == 1, err
}

// restorePartition loads an adopted partition's post-shuffle data and reduce
// progress from its checkpoint stream.
func (r *runner) restorePartition(part int) {
	frames := r.ck.load(r.p, partStream(part))
	var kv *kvbuf.KV
	var groups uint32
	var outBytes uint64
	for _, f := range frames {
		switch f.kind {
		case frameShuffle:
			if k, err := kvbuf.FromBytes(f.payload); err == nil {
				kv = k
			}
		case frameReduce:
			if f.b >= groups {
				groups = f.b
				if len(f.payload) == 8 {
					outBytes = binary.LittleEndian.Uint64(f.payload)
				}
			}
		}
	}
	if kv != nil {
		r.parts[part] = kv
		t1 := r.p.Now()
		r.compute(float64(kv.Size()) * restoreCPUPerByte)
		d := r.p.Now() - t1
		r.m.Recovery.LoadCkpt += d
		r.obs.Rec.RecoveryStage("load", d)
	}
	r.reduceDone[part] = groups
	r.outLen[part] = outBytes
	r.truncateOutput(part)
}

// ------------------------------------------------------ survivor states --

// survivorState is what each survivor publishes during recovery. Ownership
// is expressed as *claims* (partitions whose data I hold, pending tasks I
// own): every round of recovery rebuilds the global ownership maps purely
// from the allgathered claims, so a survivor that missed a previous round's
// redistribution (its recovery allgather was itself interrupted by the next
// failure) cannot leave the masters' views diverged.
//
// A state crosses the gather as a value and may alias the rank's live tables
// (doneBitmap is its taskTable.done): the fold reads it while every
// contributor is parked in the gather, and the plan keeps none of its slices.
type survivorState struct {
	phase      int
	jobIdx     int
	doneBitmap []byte
	model      lbModel
	trace      bool  // the trace load model: model.Debt is published
	parts      []int // partitions this rank's memory holds, ascending
	tasks      []int // map tasks this rank owns (done ones: output held), ascending
}

// size is the bytes the gather prices a state at: its wire form — phase,
// job index, the length-prefixed done bitmap, the model's rank and three
// float64s, the two length-prefixed lists of 4-byte claims, and under the
// trace model one more float64 (Debt). A static-model state is priced as the
// paper model's.
func (s survivorState) size() int {
	n := 45 + len(s.doneBitmap) + 4*(len(s.parts)+len(s.tasks))
	if s.trace {
		n += 8
	}
	return n
}

// pendingDebtBytes is the merged-but-unconverted data of this rank's owned
// partitions: committed work (convert + reduce) that Backlog (map input
// bytes) does not cover. Only the trace model publishes it.
func (r *runner) pendingDebtBytes() float64 {
	var bytes float64
	for _, part := range r.ownedParts() {
		if r.kmv[part] == nil && r.parts[part] != nil {
			bytes += float64(r.parts[part].Size())
		}
	}
	return bytes
}

// partDebtCPUFactor scales a map-throughput slope to the convert+reduce
// cost of one merged partition byte (the downstream phases touch each byte
// fewer times than the map's tokenize/partition path).
const partDebtCPUFactor = 0.5

// state returns what this rank publishes in a recovery round: its phase, its
// done bitmap, its fitted load model and its claims.
func (r *runner) state() survivorState {
	s := survivorState{
		phase:      r.phase,
		jobIdx:     r.job.jobIdx,
		doneBitmap: r.tt.done,
		trace:      r.lb.kind == LBTrace,
		parts:      r.ownedParts(),
		tasks:      r.tt.ownedBy(r.myWorld()),
	}
	a, b := r.lb.fit()
	if s.trace {
		a, b = r.lb.fitTrace(r.p.Now())
		s.model.Debt = b * partDebtCPUFactor * r.pendingDebtBytes()
	}
	r.obs.LBFit(r.lb.kind.String(), a, b, r.lb.residualRMS(a, b), len(r.lb.obs))
	s.model.Rank, s.model.Intercept, s.model.Slope, s.model.Backlog = r.myWorld(), a, b, r.backlogBytes
	return s
}

// resumePrepare restores this rank's own partition state from checkpoints
// before the phase loop of a restarted job (checkpoint/restart model).
func (r *runner) resumePrepare() {
	if !r.spec.Resume || !r.spec.Model.Checkpointing() {
		return
	}
	t0 := r.p.Now()
	r.obs.Rec.RecoveryBegin()
	restoredAll := true
	for _, part := range r.ownedParts() {
		if r.job.clus.PFS.Exists(ckptPath(r.spec.JobID, partStream(part))) {
			r.restorePartition(part)
		}
		if r.parts[part] == nil {
			restoredAll = false
		}
	}
	r.shuffled = restoredAll
	d := r.p.Now() - t0
	r.m.PhaseTime[PhaseRecovery] += d
	r.obs.Rec.RecoveryEnd()
}
