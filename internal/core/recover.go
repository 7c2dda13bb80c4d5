package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

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

// recoverDR masks a failure in place: shrink the communicator, rebuild the
// global state, redistribute the failed processes' work, and rewind the
// phase index as far as the lost data requires (§4.2.2). retry is true when
// a previous recovery attempt was itself interrupted by another failure —
// overlapping failures are the norm under continuous injection, so recovery
// must be restartable, not merely runnable.
func (r *runner) recoverDR(retry bool) (err error) {
	t0 := r.p.Now()
	r.obs.Core.RecoveryAttempts.Inc()
	// Surface the recovery window to phase observers (the failure injector
	// uses this to aim kills *inside* recovery).
	r.job.h.notifyPhase(r.myWorld(), PhaseRecovery)
	// Every survivor passes through here exactly once per episode: record the
	// detect→revoke observation before the shrink/agree steps the Shrink call
	// emits, so each survivor's stream shows the full causal chain.
	r.obs.Rec.RecoveryBegin()
	r.obs.Rec.FailureDetect(nil)
	r.obs.Rec.Revoke("observed")
	endSpan := func() {
		d := r.p.Now() - t0
		r.m.Recovery.Init += d
		r.m.PhaseTime[PhaseRecovery] += d
		r.obs.Rec.RecoveryStage("init", d)
		r.obs.Rec.RecoveryEnd()
	}
	// On an interrupted attempt, close this span when bailing out with an
	// error: the caller will open a fresh one for the restarted attempt. (A
	// kill unwinds via panic with err == nil, correctly leaving the dead
	// rank's span open.)
	defer func() {
		if err != nil {
			endSpan()
		}
	}()
	if retry {
		// A second death interrupted the previous attempt. Re-revoke so the
		// new failure epoch floods to every survivor — including ones still
		// parked in the failed attempt's collectives — before re-entering
		// Shrink.
		if rerr := r.comm.Revoke(); rerr != nil {
			return rerr
		}
	}
	newComm, err := r.comm.Shrink()
	if err != nil {
		return err
	}
	newComm.SetErrHandler(drErrHandler)

	oldGroup := r.currentGroup()
	r.comm = newComm
	newGroup := r.currentGroup()
	failed := diffRanks(oldGroup, newGroup)
	r.job.noteFailed(failed)

	// Replication failover happens here — after the shrink agreed on the
	// failed set, before claims are exchanged. Pure local compute on every
	// survivor (promotion edits only this rank's claims), so an interrupting
	// failure can never leave survivors with diverged pairings: the retry
	// re-applies promotion for the larger failed set idempotently.
	if err := r.ftPromote(failed); err != nil {
		return err
	}

	// Exchange survivor state and merge the global task table (§3.3: the
	// masters' globally consistent state is what recovery is built on).
	st := r.encodeState()
	var all [][]byte
	if err := r.net(func() error {
		out, e := r.comm.Allgather(st)
		all = out
		return e
	}); err != nil {
		return err
	}
	states := make([]survivorState, len(all))
	models := make([]lbModel, len(all))
	minPhase := phDone
	maxJob := r.job.jobIdx
	mixedJobs := false
	for i, enc := range all {
		s, err := decodeState(enc)
		if err != nil {
			return err
		}
		states[i] = s
		models[i] = s.model
		if s.jobIdx != r.job.jobIdx {
			mixedJobs = true
		}
		if s.jobIdx > maxJob {
			maxJob = s.jobIdx
		}
	}
	if mixedJobs {
		// The failure caught ranks straddling adjacent jobs of the
		// application (only possible inside the previous job's final
		// barrier release). Laggards: the next job's ranks passed our final
		// barrier, so this job is globally complete — finish it. Ranks
		// ahead: the new job has done no work yet (its first barrier can't
		// have completed); restart it on the shrunken communicator so its
		// membership is agreed.
		if r.job.jobIdx < maxJob {
			return errJobSuperseded
		}
		return errRestartJob
	}
	for _, s := range states {
		r.tt.mergeBitmap(s.doneBitmap)
		if s.phase < minPhase {
			minPhase = s.phase
		}
	}

	// Rebuild the global ownership maps purely from the allgathered claims
	// (identical on every survivor), so recovery rounds interrupted by
	// further failures can never leave the masters diverged. Apply the
	// claims first, then deterministically redistribute whatever no living
	// process claims.
	for part := range r.partOwner {
		r.partOwner[part] = -1
	}
	claimedTask := make([]bool, len(r.tt.owner))
	for i, s := range states {
		w := r.comm.WorldRank(i)
		for _, p := range s.parts {
			r.partOwner[p] = w
		}
		for _, t := range s.tasks {
			if int(t) < len(r.tt.owner) {
				r.tt.owner[int(t)] = w
				claimedTask[int(t)] = true
			}
		}
	}
	var lost []int
	for part, o := range r.partOwner {
		if o < 0 {
			lost = append(lost, part)
		}
	}
	// Unclaimed pending tasks must re-run somewhere; unclaimed *completed*
	// tasks hold their output only in dead memory and matter only when the
	// map output is needed again (remap paths).
	var lostPending, lostDone []int
	for id := range r.tt.owner {
		if claimedTask[id] {
			continue
		}
		if r.tt.isDone(id) {
			lostDone = append(lostDone, id)
		} else {
			lostPending = append(lostPending, id)
		}
	}

	wc := r.spec.Model == ModelDetectResumeWC
	pfs := r.job.clus.PFS

	// resetLost restarts the reduce of this rank's share of the lost
	// partitions from nothing (their data must first be regenerated).
	resetLost := func() {
		for _, part := range lost {
			if r.partOwner[part] == r.myWorld() {
				r.reduceDone[part] = 0
				r.outLen[part] = 0
				r.truncateOutput(part)
			}
		}
	}
	// remap hands every unclaimed task to a survivor and rewinds to the map
	// phase: "the surviving processes recover the lost work by re-running
	// all the tasks from the failed processes" — including completed tasks
	// whose output lived only in dead memory (restorably under WC).
	remap := func() error {
		for _, id := range lostDone {
			r.tt.setDone(id, false) // its output died with its owner
		}
		lostTasks := append(lostDone, lostPending...)
		r.redistributeTasks(lostTasks, models, wc)
		if err := r.exchangeReplicas(nil, lostTasks); err != nil {
			return err
		}
		// Every rank must take part in the shuffle again so the re-run tasks'
		// output reaches its partitions; rebuilding is idempotent.
		r.shuffled = false
		minPhase = phMap
		return nil
	}

	if r.pureFailover(lost, lostPending, lostDone) {
		// Replication failover covered everything the dead ranks held: the
		// promoted shadows claimed their pairs' tasks and partitions from
		// their own memory, so nothing is lost — no reassignment, no replay,
		// no PFS restore, and no phase rewind beyond the survivors' minimum.
	} else if minPhase >= phShuffle && len(lostPending) == 0 {
		// Post-shuffle failure: partition data was lost from memory. With
		// checkpoints (WC) it is restored from a replica or the PFS; without
		// (NWC), or if a partition's snapshot survives nowhere, the map
		// output must be regenerated and re-exchanged.
		r.reassign(lost, models, func(part int) float64 {
			if sz := pfs.Size(ckptPath(r.spec.JobID, partStream(part))); sz > 0 {
				return float64(sz)
			}
			return 1
		})
		// Hand the lost partitions' in-memory replicas to their new owners
		// before judging restorability, so peer-RAM copies count even when
		// the PFS copy is torn — or the whole tier is offline.
		if err := r.exchangeReplicas(lost, nil); err != nil {
			return err
		}
		needRemap := !wc
		if wc {
			v, err := r.needRemapAgreed(lost)
			if err != nil {
				return err
			}
			needRemap = v
		}
		if needRemap {
			if err := remap(); err != nil {
				return err
			}
			resetLost()
		} else {
			// Work-conserving: adopt the lost partitions from checkpoints.
			for _, part := range lost {
				if r.partOwner[part] != r.myWorld() {
					continue
				}
				if err := r.restorePartition(part); err != nil {
					return err
				}
			}
			// Rewind (at most) to the convert phase: adopted partitions
			// restore their shuffle snapshot but must be re-converted;
			// partitions already holding a KMV are skipped there.
			if minPhase > phConvert {
				minPhase = phConvert
			}
		}
	} else {
		// Failure during (or before) map, or with map work still
		// outstanding: unclaimed partitions (no data yet) get owners so the
		// shuffle has destinations, and the unclaimed work is re-run.
		r.reassign(lost, models, func(int) float64 { return 1 })
		resetLost()
		if err := remap(); err != nil {
			return err
		}
	}

	r.phase = minPhase
	endSpan()
	return nil
}

// currentGroup returns the communicator's world ranks.
func (r *runner) currentGroup() []int {
	out := make([]int, r.comm.Size())
	for i := range out {
		out[i] = r.comm.WorldRank(i)
	}
	return out
}

// diffRanks returns members of old not present in new (both sorted).
func diffRanks(old, new []int) []int {
	var out []int
	i := 0
	for _, o := range old {
		for i < len(new) && new[i] < o {
			i++
		}
		if i >= len(new) || new[i] != o {
			out = append(out, o)
		}
	}
	return out
}

// spread deals n lost pieces out to the survivors — by the load-balancer
// models when enabled (§3.4), evenly otherwise — and reports each piece's
// new owner to assign. Under a replication model work is never parked on a
// dedicated mirror: its acting primary owns it and the mirror follows.
func (r *runner) spread(what string, n int, models []lbModel, weight func(i int) float64, assign func(i, world int)) {
	if n == 0 {
		return
	}
	r.obs.Rec.LoadBalance(what, n, r.comm.Size())
	var assignment [][]int
	if r.spec.LoadBalance {
		pieces := make([]float64, n)
		for i := range pieces {
			pieces[i] = weight(i)
		}
		assignment = balanceWork(models, pieces)
	} else {
		assignment = evenSplit(r.comm.Size(), n)
	}
	for surv, pieceIdxs := range assignment {
		w := r.comm.WorldRank(surv)
		if r.ftm != nil {
			w = r.ftm.redirectToActing(w)
		}
		for _, pi := range pieceIdxs {
			assign(pi, w)
		}
	}
}

// reassign gives lost partitions new owners among the survivors.
func (r *runner) reassign(lost []int, models []lbModel, weight func(part int) float64) {
	r.spread("parts", len(lost), models,
		func(i int) float64 { return weight(lost[i]) },
		func(i, w int) { r.partOwner[lost[i]] = w })
}

// redistributeTasks hands unclaimed task ids to survivors deterministically
// (restorable=true weights restorable tasks cheaper; their checkpoint
// streams are replayed instead of fully re-run).
func (r *runner) redistributeTasks(lostIDs []int, models []lbModel, restorable bool) {
	sort.Ints(lostIDs)
	r.spread("tasks", len(lostIDs), models,
		func(i int) float64 {
			size := float64(r.tt.tasks[lostIDs[i]].Chunk.Size)
			if restorable {
				// Restoring a committed task is cheaper than re-running it.
				size *= 0.3
			}
			return size
		},
		func(i, w int) {
			r.tt.owner[lostIDs[i]] = w
			if w == r.myWorld() {
				r.backlogBytes += float64(r.tt.tasks[lostIDs[i]].Chunk.Size)
			}
		})
}

// needRemapAgreed decides, identically on every survivor, whether the lost
// partitions must be regenerated (remap) instead of adopted from snapshots.
func (r *runner) needRemapAgreed(lost []int) (bool, error) {
	if r.rep == nil {
		// PFS-only: the verdict derives from shared durable state, so every
		// survivor computes the same answer locally — no agreement round
		// (and none is charged, keeping replica-free runs byte-identical to
		// pre-replica behaviour).
		for _, part := range lost {
			if !r.rd.holdsSnapshot(r.p, partStream(part)) {
				return true, nil
			}
		}
		return false, nil
	}
	// With replicas, restorability depends on each new owner's private
	// in-memory store, so verdicts can differ per rank; each owner judges
	// its own adopted partitions and the ranks agree by allreduce-max.
	local := int64(0)
	me := r.myWorld()
	for _, part := range lost {
		if r.partOwner[part] == me && !r.rd.holdsSnapshot(r.p, partStream(part)) {
			local = 1
			break
		}
	}
	verdict, err := r.allreduce(local, func(a, b int64) int64 { return max(a, b) })
	return verdict == 1, err
}

// restorePartition loads an adopted partition's post-shuffle data and reduce
// progress from its checkpoint stream.
func (r *runner) restorePartition(part int) error {
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
	return nil
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
func (r *runner) resumePrepare() error {
	if !r.spec.Resume || !r.spec.Model.Checkpointing() {
		return nil
	}
	t0 := r.p.Now()
	r.obs.Rec.RecoveryBegin()
	restoredAll := true
	for _, part := range r.ownedParts() {
		if r.job.clus.PFS.Exists(ckptPath(r.spec.JobID, partStream(part))) {
			if err := r.restorePartition(part); err != nil {
				return err
			}
			if r.parts[part] == nil {
				restoredAll = false
			}
		} else {
			restoredAll = false
		}
	}
	r.shuffled = restoredAll
	d := r.p.Now() - t0
	r.m.PhaseTime[PhaseRecovery] += d
	r.obs.Rec.RecoveryEnd()
	return nil
}
