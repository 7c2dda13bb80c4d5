package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
// (shrink, promote, allgather the claims), the pure rebuild of the global
// state from them, and the effect of the decision it names.
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
	// is what recovery is built on).
	st := r.encodeState()
	var all [][]byte
	if err := r.net(func() (e error) { all, e = r.comm.Allgather(st); return e }); err != nil {
		return err
	}
	states := make([]survivorState, len(all))
	for i, enc := range all {
		if states[i], err = decodeState(enc); err != nil {
			return err
		}
		if states[i].jobIdx != r.job.jobIdx {
			// The closing shrink holds every live rank in a job until all leave it.
			return fmt.Errorf("core: recovery of job %d met a survivor in job %d", r.job.jobIdx, states[i].jobIdx)
		}
	}
	pl := rebuild(states, groupOf(newComm), r.tt, r.nParts)
	if pl.done {
		r.phase = phDone
		return nil
	}
	r.partOwner = pl.partOwner

	d := pl.decide(r.spec.Model.Checkpointing(), r.ftm != nil)
	switch d {
	case adopt:
		d, err = r.adoptLost(pl)
	case remap:
		// Unclaimed partitions (no data yet, or none that can be restored)
		// get owners so the shuffle has destinations.
		r.spread("parts", pl.lostParts, pl.models, func(int) float64 { return 1 }, r.partOwner)
		err = r.remapLost(pl)
	}
	if err != nil {
		return err
	}
	r.phase = d.resumeAt(pl.minPhase)
	return nil
}

// recoveryPlan is the global state a recovery round rebuilds from the
// survivors' claims, identical on every survivor.
type recoveryPlan struct {
	// done: a survivor is past the final barrier, so every rank had finished
	// the job's work and its outputs are durable — nothing is lost, and the
	// survivors go straight to closing the job. Nothing else is set then.
	done      bool
	minPhase  int       // the earliest phase a survivor is in
	models    []lbModel // the survivors' load models, in communicator order
	partOwner []int     // partition -> the survivor whose memory holds it, -1 when none does
	lostParts []int     // the partitions no survivor holds, ascending
	// The tasks no survivor claims, ascending, and how many are pending: those
	// must re-run somewhere; the completed ones hold their output only in dead
	// memory and matter only when the map output is needed again (remap).
	lostTasks   []int
	lostPending int
}

// rebuild computes a round's plan purely from the allgathered claims (see
// survivorState): states[i] is world rank group[i]'s. It merges the done
// bitmaps into tt and applies the task claims to it; a task nobody claims
// keeps its dead owner until an effect hands it out. Every survivor is in the
// same job: a rank leaves one only through its closing shrink, which every
// live rank of the job enters.
func rebuild(states []survivorState, group []int, tt *taskTable, nParts int) *recoveryPlan {
	pl := &recoveryPlan{minPhase: phDone, models: make([]lbModel, len(states))}
	for i, s := range states {
		pl.models[i] = s.model
		pl.minPhase = min(pl.minPhase, s.phase)
		pl.done = pl.done || s.phase == phDone
	}
	if pl.done {
		return pl
	}
	// Apply the claims; whatever no living process claims is lost. A claimed
	// id past the table (a corrupt claim) is ignored, not indexed.
	pl.partOwner = make([]int, nParts)
	for part := range pl.partOwner {
		pl.partOwner[part] = -1
	}
	claimed := make([]bool, len(tt.owner))
	for i, s := range states {
		tt.mergeBitmap(s.doneBitmap)
		for _, p := range s.parts {
			if int(p) < nParts {
				pl.partOwner[p] = group[i]
			}
		}
		for _, t := range s.tasks {
			if int(t) < len(tt.owner) {
				tt.owner[t] = group[i]
				claimed[t] = true
			}
		}
	}
	for part, o := range pl.partOwner {
		if o < 0 {
			pl.lostParts = append(pl.lostParts, part)
		}
	}
	for id := range tt.owner {
		if !claimed[id] {
			pl.lostTasks = append(pl.lostTasks, id)
			if !tt.isDone(id) {
				pl.lostPending++
			}
		}
	}
	return pl
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
	r.spread("parts", pl.lostParts, pl.models, func(part int) float64 {
		if sz := pfs.Size(ckptPath(r.spec.JobID, partStream(part))); sz > 0 {
			return float64(sz)
		}
		return 1
	}, r.partOwner)
	// Hand the lost partitions' in-memory replicas to their new owners
	// before judging restorability, so peer-RAM copies count even when the
	// PFS copy is torn — or the whole tier is offline.
	if err := r.exchangeReplicas(partStream, pl.lostParts, r.partOwner); err != nil {
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
		if r.partOwner[part] == r.myWorld() {
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
	r.redistributeTasks(lostTasks, pl.models, r.spec.Model.Checkpointing())
	if err := r.exchangeReplicas(mapStream, lostTasks, r.tt.owner); err != nil {
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
		if r.partOwner[part] == r.myWorld() {
			r.reduceDone[part] = 0
			r.outLen[part] = 0
			r.truncateOutput(part)
		}
	}
}

// adoptComm moves the runner onto the communicator a shrink agreed on and
// records, and returns, the world ranks the old one had and it lacks.
func (r *runner) adoptComm(nc *mpi.Comm) (failed []int) {
	nc.SetErrHandler(drErrHandler)
	if nc.Size() < r.comm.Size() { // a shrink drops exactly the failed members
		for i := range r.comm.Size() {
			if w := r.comm.WorldRank(i); nc.CommRankOf(w) < 0 {
				failed = append(failed, w)
			}
		}
	}
	r.comm = nc
	r.job.noteFailed(failed)
	return failed
}

// groupOf returns a communicator's world ranks.
func groupOf(c *mpi.Comm) []int {
	out := make([]int, c.Size())
	for i := range out {
		out[i] = c.WorldRank(i)
	}
	return out
}

// spread deals the lost pieces ids out to the survivors — by the
// load-balancer models when enabled (§3.4), evenly otherwise — and records
// each piece's new owner in owners (id -> world rank). Under a replication
// model work is never parked on a dedicated mirror: its acting primary owns it
// and the mirror follows.
func (r *runner) spread(what string, ids []int, models []lbModel, weight func(id int) float64, owners []int) {
	if len(ids) == 0 {
		return
	}
	r.obs.Rec.LoadBalance(what, len(ids), r.comm.Size())
	var assignment [][]int
	if r.spec.LoadBalance {
		pieces := make([]float64, len(ids))
		for i, id := range ids {
			pieces[i] = weight(id)
		}
		assignment = balanceWork(models, pieces)
	} else {
		assignment = evenSplit(r.comm.Size(), len(ids))
	}
	for surv, pieceIdxs := range assignment {
		w := r.comm.WorldRank(surv)
		if r.ftm != nil {
			w = r.ftm.redirectToActing(w)
		}
		for _, pi := range pieceIdxs {
			owners[ids[pi]] = w
		}
	}
}

// redistributeTasks hands unclaimed task ids (ascending) to survivors
// deterministically (restorable=true weights restorable tasks cheaper; their
// checkpoint streams are replayed instead of fully re-run).
func (r *runner) redistributeTasks(lostIDs []int, models []lbModel, restorable bool) {
	r.spread("tasks", lostIDs, models, func(id int) float64 {
		size := float64(r.tt.tasks[id].Chunk.Size)
		if restorable {
			// Restoring a committed task is cheaper than re-running it.
			size *= 0.3
		}
		return size
	}, r.tt.owner)
	for _, id := range lostIDs {
		if r.tt.owner[id] == r.myWorld() {
			r.backlogBytes += float64(r.tt.tasks[id].Chunk.Size)
		}
	}
}

// needRemapAgreed decides, identically on every survivor, whether the lost
// partitions must be regenerated (remap) instead of adopted from snapshots.
func (r *runner) needRemapAgreed(lost []int) (bool, error) {
	// With every holder of the restore chain shared and durable, the verdict
	// derives from state all survivors read alike, so each computes it locally
	// over all the lost partitions — no agreement round (and none is charged,
	// keeping replica-free runs byte-identical to pre-replica behaviour). A
	// holder in rank-private memory makes restorability depend on each new
	// owner's store, so verdicts can differ per rank: each owner judges its
	// own adopted partitions and the ranks agree by allreduce-max.
	private := slices.ContainsFunc(r.rd.chain(), holder.private)
	me := r.myWorld()
	local := int64(0)
	for _, part := range lost {
		if (!private || r.partOwner[part] == me) && !r.rd.holdsSnapshot(r.p, partStream(part)) {
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
	frames := r.rd.load(r.p, partStream(part))
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

// ------------------------------------------------------- recovery codecs --

// survivorState is what each survivor publishes during recovery. Ownership
// is expressed as *claims* (partitions whose data I hold, pending tasks I
// own): every round of recovery rebuilds the global ownership maps purely
// from the allgathered claims, so a survivor that missed a previous round's
// redistribution (its recovery allgather was itself interrupted by the next
// failure) cannot leave the masters' views diverged.
type survivorState struct {
	phase      int
	jobIdx     int
	doneBitmap []byte
	model      lbModel
	parts      []uint32 // partitions this rank's memory holds
	tasks      []uint32 // map tasks this rank owns (done ones: output held)
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

func (r *runner) encodeState() []byte {
	a, b := r.lb.fit()
	debt := 0.0
	if r.lb.kind == LBTrace {
		a, b = r.lb.fitTrace(r.p.Now())
		debt = b * partDebtCPUFactor * r.pendingDebtBytes()
	}
	r.obs.LBFit(r.lb.kind.String(), a, b, r.lb.residualRMS(a, b), len(r.lb.obs))
	le := binary.LittleEndian
	buf := []byte{byte(r.phase)}
	buf = le.AppendUint32(buf, uint32(r.job.jobIdx))
	bm := r.tt.doneBitmap()
	buf = le.AppendUint32(buf, uint32(len(bm)))
	buf = append(buf, bm...)
	buf = le.AppendUint32(buf, uint32(r.myWorld()))
	for _, f := range []float64{a, b, r.backlogBytes} {
		buf = le.AppendUint64(buf, math.Float64bits(f))
	}
	// The claims: partitions whose data this rank holds, tasks it owns.
	for _, ids := range [][]int{r.ownedParts(), r.tt.ownedBy(r.myWorld())} {
		buf = le.AppendUint32(buf, uint32(len(ids)))
		for _, id := range ids {
			buf = le.AppendUint32(buf, uint32(id))
		}
	}
	// Trace-model extension: one trailing float64 (Debt seconds). Static
	// appends nothing, keeping its wire form — and hence the allgather's
	// virtual timing — byte-identical to the paper model.
	if r.lb.kind == LBTrace {
		buf = le.AppendUint64(buf, math.Float64bits(debt))
	}
	return buf
}

func decodeState(data []byte) (survivorState, error) {
	var s survivorState
	if len(data) < 5 {
		return s, errors.New("core: short survivor state")
	}
	s.phase = int(data[0])
	if s.phase > phDone {
		return s, fmt.Errorf("core: survivor state: bad phase %d", s.phase)
	}
	if len(data) < 9 {
		return s, errors.New("core: short survivor state header")
	}
	s.jobIdx = int(binary.LittleEndian.Uint32(data[1:5]))
	n := int(binary.LittleEndian.Uint32(data[5:9]))
	data = data[9:]
	if len(data) < n+4+24 {
		return s, errors.New("core: truncated survivor state")
	}
	s.doneBitmap = data[:n]
	data = data[n:]
	s.model.Rank = int(binary.LittleEndian.Uint32(data[:4]))
	data = data[4:]
	for _, f := range [...]*float64{&s.model.Intercept, &s.model.Slope, &s.model.Backlog} {
		*f = math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	readList := func() ([]uint32, error) {
		if len(data) < 4 {
			return nil, errors.New("core: truncated claim list")
		}
		k := int(binary.LittleEndian.Uint32(data[:4]))
		data = data[4:]
		if len(data) < 4*k {
			return nil, errors.New("core: truncated claim entries")
		}
		out := make([]uint32, k)
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(data[i*4 : i*4+4])
		}
		data = data[4*k:]
		return out, nil
	}
	var err error
	if s.parts, err = readList(); err != nil {
		return s, err
	}
	if s.tasks, err = readList(); err != nil {
		return s, err
	}
	switch len(data) {
	case 0:
		// Static model: no extension block.
	case 8:
		// Trace-model extension: Debt seconds.
		s.model.Debt = math.Float64frombits(binary.LittleEndian.Uint64(data))
	default:
		return s, fmt.Errorf("core: survivor state: %d trailing bytes", len(data))
	}
	return s, nil
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
