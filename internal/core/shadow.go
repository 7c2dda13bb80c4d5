package core

// Replication execution model (-ft-model=replicate|partial): part of the
// world runs as dedicated shadow ranks that mirror a primary's task stream —
// re-executing its map tasks, receiving copies of its shuffle routes in the
// same exchange, converting and reducing the same partitions into a local
// staging buffer — so a primary failure fails over to the live shadow with
// no checkpoint replay and no PFS read (FTHP-MPI / PartRePer-MPI style).
// FTModelCR (the zero value) leaves every path in this file unreached: a
// checkpoint-only run has no shadow, sends no mirrored route or sync record
// and registers no ftmr_ftmodel_* series.

import (
	"cmp"
	"slices"
	"time"

	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/sched"
)

// tagShadowSync is the replication model's message tag, in tag space far
// above tagStatusBase and tagReplicaBase, offset by the job index so stale
// pushes from an earlier job can never match a later one.
const tagShadowSync = 1 << 21

// shadowSync is one reduce-progress sync record: a primary's latest durable
// commit of a partition, sent to its live shadow.
type shadowSync struct {
	part, groups uint32
	outLen       uint64
}

// shadowSyncLen is the wire size a sync record is priced at:
// [part u32][groups u32][outLen u64].
const shadowSyncLen = 16

// ftState is one rank's view of the replication execution model: the static
// pairing, the dynamic acting/shadow assignment (updated identically on
// every survivor during recovery), and — on shadow ranks — the mirror's
// staging state. nil when the model is FTModelCR or inapplicable.
type ftState struct {
	pairing *sched.Pairing
	slot    int  // the slot this rank serves (fixed for the job's lifetime)
	mirror  bool // true while this rank is a mirroring shadow (cleared on promotion)

	acting []int // slot -> world rank currently acting as the slot's primary
	shadow []int // slot -> live mirroring shadow's world rank, or -1

	mirrorSlot map[int]int // world rank -> slot, for live mirroring shadows

	// Shadow-side staging: mirrored task completions, the mirror's reduce
	// progress and serialized output per partition, and the primary's last
	// synced durable commit per partition.
	mirrorDone map[int]bool
	mirrorRed  map[int]uint32
	shadowOut  map[int][]byte
	syncedG    map[int]uint32
	syncedLen  map[int]uint64
}

// newFTState builds the replication state for one runner, or returns nil
// when the spec does not replicate (FTModelCR, a non-detect/resume model, or
// a world too small to split). Every rank computes the same pairing locally.
func newFTState(j *jobCtx, c *mpi.Comm, spec Spec) *ftState {
	if !spec.FTModel.Replicating() {
		return nil
	}
	if !spec.Model.DetectResume() {
		return nil
	}
	w := c.Size()
	if w < 2 {
		return nil
	}
	clus := j.clus
	pr := sched.PairRanks(w, clus.Cfg.PPN, len(clus.Nodes), spec.ReplicaFraction)
	if pr.P >= pr.W {
		return nil // fraction rounded to zero shadows
	}
	f := &ftState{
		pairing:    pr,
		slot:       pr.SlotOf[c.Rank()],
		mirror:     pr.IsShadow(c.Rank()),
		acting:     make([]int, pr.P),
		shadow:     make([]int, pr.P),
		mirrorSlot: make(map[int]int),
		mirrorDone: make(map[int]bool),
		mirrorRed:  make(map[int]uint32),
		shadowOut:  make(map[int][]byte),
		syncedG:    make(map[int]uint32),
		syncedLen:  make(map[int]uint64),
	}
	c.Self().Obs().BindFT()
	for slot := 0; slot < pr.P; slot++ {
		f.acting[slot] = c.WorldRank(slot)
		f.shadow[slot] = -1
		if s := pr.Shadow[slot]; s >= 0 {
			sw := c.WorldRank(s)
			f.shadow[slot] = sw
			f.mirrorSlot[sw] = slot
		}
	}
	return f
}

// pairWorld returns the world rank currently acting as this rank's slot
// primary (for a mirroring shadow: the primary it mirrors).
func (f *ftState) pairWorld() int { return f.acting[f.slot] }

// redirectToActing maps a mirroring shadow to the primary it serves, so lost
// work redistributed by recovery is never parked on a dedicated mirror (the
// mirror re-executes it anyway, by mirroring its pair).
func (f *ftState) redirectToActing(w int) int {
	if slot, ok := f.mirrorSlot[w]; ok {
		return f.acting[slot]
	}
	return w
}

// syncTag returns the reduce-progress sync tag for this job.
func (r *runner) syncTag() int { return tagShadowSync + r.job.jobIdx }

// ------------------------------------------------------------ mirror role --

// mirrorRole is the role of a mirroring shadow: it works on its pair's tasks
// and the pair's partitions it received in the shuffle exchange, and
// records progress only in its own memory — no gossip, no checkpoints, no
// done-bit mutation, no PFS writes. The primary's stream is authoritative;
// the mirror only builds the state a failover needs.
func (r *runner) mirrorRole() *role {
	f := r.ftm
	return &role{
		tasks:   r.mirrorPending,
		mapTask: r.mirrorMapTask,
		parts:   r.mirrorParts,
		reduced: func(part int) uint32 { return f.mirrorRed[part] },
		group:   func() {},
		commit: func(part int, _, _ string, g uint32, out []byte) error {
			// Stage the output locally and fold in the primary's
			// reduce-progress pushes as they arrive, so a failover knows the
			// durable high-water mark.
			if len(out) > 0 {
				f.shadowOut[part] = append(f.shadowOut[part], out...)
			}
			f.mirrorRed[part] = g
			r.drainShadowSync()
			return nil
		},
		partDone: func(time.Duration) {},
		fold:     r.drainShadowSync,
	}
}

// mirrorPending returns the pair's tasks this shadow has not mirrored yet.
func (r *runner) mirrorPending() []int {
	return slices.DeleteFunc(r.tt.ownedBy(r.ftm.pairWorld()), func(id int) bool { return r.ftm.mirrorDone[id] })
}

// mirrorParts returns the pair's partitions this shadow merged in a
// shuffle exchange (ascending), whether or not any pairs arrived for them.
// Partitions the pair adopted after the exchange have no mirror data and are
// skipped — failover falls back to the checkpoint path for those.
func (r *runner) mirrorParts() []int {
	return slices.DeleteFunc(r.partsOf(r.ftm.pairWorld()), func(part int) bool { return r.parts[part] == nil })
}

// mirrorMapTask re-executes one map task with the pair's input chunk,
// paying the same read/compute/spill costs as the primary (replication's
// resource overhead is real duplicated work) but replaying and writing no
// checkpoints. Its output goes straight into the map-output log: a map task
// makes no MPI call, so no recovery can interrupt one halfway.
func (r *runner) mirrorMapTask(id int, mapper Mapper, reader FileRecordReader) error {
	t0 := r.p.Now()
	task := r.tt.tasks[id]
	ctx := &TaskContext{proc: r.p, run: r}
	if err := r.openChunk(task, reader); err != nil {
		return err
	}
	defer reader.Close()

	em := newEmitter(&r.log)
	var cpuAcc float64
	err := scanRecords(reader, mapBatch,
		func(k, v []byte) error {
			if err := mapper.Map(ctx, k, v, em); err != nil {
				return err
			}
			cpuAcc += mapper.Cost(k, v)
			return nil
		},
		func() {
			r.compute(cpuAcc)
			cpuAcc = 0
		})
	if err != nil {
		return err
	}
	r.chargeEmitted(em.bytes())
	// Train the shadow's load-balance model on the mirrored executions, so a
	// promoted shadow enters recovery rounds with a fitted model.
	r.lb.observe(task.Chunk.Size, (r.p.Now() - t0).Seconds(), r.p.Now())
	r.ftm.mirrorDone[id] = true
	return nil
}

// ------------------------------------------------------- replicate routing --

// withShadowCopies returns a primary's shuffle routes with, for every slot
// that has a live shadow, one more route for that shadow at the size of the
// route bound for the slot's acting primary: the shadow reads the runs the
// outbox holds for its pair, a second transfer, priced as one, and counted as
// a mirror send. The result ascends by peer, as AlltoallvSparse wants;
// without the replication model it is send.
func (r *runner) withShadowCopies(send []mpi.Block) []mpi.Block {
	f := r.ftm
	if f == nil {
		return send
	}
	n := len(send)
	for slot, sw := range f.shadow {
		if sw < 0 {
			continue
		}
		i, ok := slices.BinarySearchFunc(send[:n], int32(r.comm.CommRankOf(f.acting[slot])),
			func(b mpi.Block, peer int32) int { return cmp.Compare(b.Peer, peer) })
		if !ok {
			continue
		}
		send = append(send, mpi.Block{Peer: int32(r.comm.CommRankOf(sw)), Size: send[i].Size})
		r.obs.FT.MirrorSends.Inc()
		r.obs.FT.MirrorBytes.Add(float64(send[i].Size))
	}
	slices.SortFunc(send, func(a, b mpi.Block) int { return cmp.Compare(a.Peer, b.Peer) })
	return send
}

// pushShadowSync sends this primary's latest durable reduce commit to its
// live shadow (best-effort eager send; a dead shadow surfaces as a process
// failure and enters normal recovery).
func (r *runner) pushShadowSync(part int, g uint32) {
	f := r.ftm
	if f == nil {
		return
	}
	sw := f.shadow[f.slot]
	if sw < 0 {
		return
	}
	cr := r.comm.CommRankOf(sw)
	if cr < 0 {
		return
	}
	msg := shadowSync{part: uint32(part), groups: g, outLen: r.outLen[part]}
	_ = r.net(func() error { return r.comm.SendVal(cr, r.syncTag(), msg, shadowSyncLen) })
	r.obs.ShadowSyncPush(part, int(g), shadowSyncLen)
}

// drainShadowSync folds banked reduce-progress pushes into the shadow's view
// of the primary's durable high-water mark (monotone max per partition).
func (r *runner) drainShadowSync() {
	for {
		m, ok, err := r.comm.TryRecv(mpi.AnySource, r.syncTag())
		if err != nil || !ok {
			return
		}
		s := m.Val.(shadowSync)
		part := int(s.part)
		if s.groups >= r.ftm.syncedG[part] {
			r.ftm.syncedG[part] = s.groups
			r.ftm.syncedLen[part] = s.outLen
		}
		r.obs.Rec.ShadowSync("drain", part, int(s.groups), uint64(m.Size))
	}
}

// ---------------------------------------------------------------- failover --

// ftPromote applies the replication failover to the pairing state, after the
// communicator shrank and before survivor claims are exchanged. Every
// survivor updates the acting/shadow arrays identically (pure local compute
// over the agreed failed set); the promoted shadow additionally claims its
// pair's tasks and partitions, reconciles its staged output against the
// primary's last durable commit, and becomes a checkpointing primary. The
// claims then flow through the ordinary recovery allgather, so non-promoted
// survivors learn the new ownership exactly as they learn any other claim.
func (r *runner) ftPromote(failed []int) error {
	f := r.ftm
	if f == nil || len(failed) == 0 {
		return nil
	}
	dead := make(map[int]bool, len(failed))
	for _, w := range failed {
		dead[w] = true
	}
	// Dead shadows stop mirroring their slot.
	for slot, sw := range f.shadow {
		if sw >= 0 && dead[sw] {
			f.shadow[slot] = -1
			delete(f.mirrorSlot, sw)
		}
	}
	me := r.myWorld()
	for slot, aw := range f.acting {
		if !dead[aw] {
			continue
		}
		sw := f.shadow[slot]
		if sw < 0 {
			// Unreplicated slot, or both pair members died: the slot's work
			// goes through the ordinary checkpoint-based lost paths.
			continue
		}
		f.acting[slot] = sw
		f.shadow[slot] = -1
		delete(f.mirrorSlot, sw)
		if sw != me {
			continue
		}
		f.mirror = false
		r.role = r.primaryRole()
		r.obs.Failover(aw, sw)
		if err := r.adoptPromotion(aw); err != nil {
			return err
		}
	}
	return nil
}

// adoptPromotion is the promoted shadow's half of a failover: claim the dead
// pair's tasks and partitions that the mirror can stand behind, reconcile
// reduce output, and re-enable checkpointing. Everything here is local
// compute plus PFS truncate/append on claimed partitions — no checkpoint
// replay, no partition re-read.
func (r *runner) adoptPromotion(deadWorld int) error {
	me := r.myWorld()
	// Fold any banked final sync pushes before judging durable progress.
	r.drainShadowSync()
	for _, id := range r.tt.ownedBy(deadWorld) {
		switch {
		case r.ftm.mirrorDone[id]:
			// Fully mirrored: the map output is in this rank's memory.
			r.tt.setOwner(id, me)
			r.tt.setDone(id, true)
		case !r.tt.isDone(id):
			// Pending: the new primary runs it like any owned task.
			r.tt.setOwner(id, me)
			r.backlogBytes += float64(r.tt.tasks[id].Chunk.Size)
		}
		// Done-but-unmirrored tasks stay unclaimed: the generic lost-task
		// machinery re-runs or restores them if their output is needed.
	}
	for _, part := range r.partsOf(deadWorld) {
		if r.shuffled && r.parts[part] == nil {
			// Post-exchange partition the mirror never received (adopted by
			// the pair after the exchange): leave it to the lost path.
			continue
		}
		r.ownPart(part, me)
		if err := r.reconcileMirrorOutput(part); err != nil {
			return err
		}
	}
	// From here on this rank is an ordinary primary.
	r.ck.enabled = r.spec.Model.Checkpointing()
	return nil
}

// reconcileMirrorOutput aligns a claimed partition's reduce state with the
// primary's last durable commit: when the mirror is at least as far along,
// the file's uncommitted tail is replaced with the mirror's staged suffix
// (byte-identical — both sides reduce the same deterministic groups) and the
// reduce resumes from the mirror's progress; otherwise the committed prefix
// stands and the reduce resumes from it.
func (r *runner) reconcileMirrorOutput(part int) error {
	f := r.ftm
	gy, ly := f.syncedG[part], f.syncedLen[part]
	gs, out := f.mirrorRed[part], f.shadowOut[part]
	r.outLen[part] = ly
	r.truncateOutput(part)
	if gs >= gy && uint64(len(out)) >= ly {
		if suffix := out[ly:]; len(suffix) > 0 {
			if err := r.appendOutput(part, outputPath(r.spec.JobID, part), suffix); err != nil {
				return err
			}
			r.outLen[part] = uint64(len(out))
		}
		r.reduceDone[part] = gs
	} else {
		r.reduceDone[part] = gy
	}
	delete(f.shadowOut, part)
	delete(f.mirrorRed, part)
	return nil
}
