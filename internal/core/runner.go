package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/storage"
	"ftmrmpi/internal/trace"
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

// mapBatch is the number of records whose CPU/commit accounting is batched
// into one scheduling event (behaviour-neutral: there is no communication
// inside a chunk).
const mapBatch = 256

// CPU cost constants for library-internal work (seconds per byte).
const (
	restoreCPUPerByte   = 1.5e-10 // re-injecting checkpointed KV
	convertCPUPerByte   = 4e-10   // KV→KMV grouping work
	partitionCPUPerByte = 1e-10   // hash-partitioning emitted pairs
)

// Recovery alignment sentinels (see recoverDR): with continuous failures in
// an iterative application, a revocation can catch ranks straddling two
// adjacent jobs — some still inside job N's final barrier release, others
// already initializing job N+1. The allgathered states carry the job index;
// on a mismatch, laggards learn their job is globally complete and finish
// it, while the ranks ahead restart their barely-started job on the
// shrunken communicator so every participant agrees on its membership.
var (
	errJobSuperseded = errors.New("core: job completed globally during recovery")
	errRestartJob    = errors.New("core: restart job on the shrunken communicator")
)

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
	rec  *trace.Recorder       // nil when tracing is disabled
	cm   *coreMets             // nil when metrics are disabled; same one-branch discipline
	ip   *introspect.RankProbe // nil when introspection is disabled; same one-branch discipline

	world0    []int // world ranks participating at job start
	tt        *taskTable
	nParts    int   // partition count (== len(world0))
	partOwner []int // partition -> world rank

	mapOut     map[int]*kvbuf.KV  // partition -> this rank's map output
	parts      map[int]*kvbuf.KV  // owned partition -> merged shuffle data
	kmv        map[int]*kvbuf.KMV // owned partition -> converted groups
	reduceDone map[int]uint32     // partition -> committed group count
	outLen     map[int]uint64     // partition -> committed output bytes
	shuffled   bool               // owned partitions hold merged data

	phase int

	ck           *ckptWriter
	cp           *copier
	rd           *ckptReader
	rep          *replicator // nil when Spec.ReplicaK == 0
	ftm          *ftState    // nil unless a replication execution model is active
	lb           lbAgent
	backlogBytes float64 // bytes of input work remaining (for balancing)

	gossip    int
	statusTag int
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

func newRunner(j *jobCtx, c *mpi.Comm) *runner {
	spec := j.spec
	world0 := make([]int, c.Size())
	for i := range world0 {
		world0[i] = c.WorldRank(i)
	}
	m := newRankMetrics(c.Self().WorldRank())
	cm := bindCoreMets(j.clus.Metrics, c.Self().WorldRank())
	mirrorRankMetrics(j.clus.Metrics, m, c.Self().WorldRank())
	r := &runner{
		job:        j,
		spec:       spec,
		comm:       c,
		p:          c.Proc(),
		m:          m,
		rec:        c.Self().Recorder(),
		cm:         cm,
		ip:         c.Self().Probe(),
		world0:     world0,
		nParts:     c.Size(),
		partOwner:  append([]int(nil), world0...),
		mapOut:     make(map[int]*kvbuf.KV),
		parts:      make(map[int]*kvbuf.KV),
		kmv:        make(map[int]*kvbuf.KMV),
		reduceDone: make(map[int]uint32),
		outLen:     make(map[int]uint64),
		statusTag:  tagStatusBase + j.jobIdx,
	}
	if ftm := newFTState(j, c, spec); ftm != nil {
		// Replication execution model: only the primary slots partition the
		// key space; shadows mirror a slot and own nothing.
		r.ftm = ftm
		r.nParts = len(ftm.acting)
		r.partOwner = append([]int(nil), ftm.acting...)
	}
	r.lb.kind = spec.LBModel
	clus := j.clus
	local := clus.LocalOf(c.Self().WorldRank())
	r.ck = &ckptWriter{
		enabled: spec.Model.Checkpointing() && (r.ftm == nil || !r.ftm.mirror),
		jobID:   spec.JobID,
		loc:     spec.CkptLocation,
		local:   local,
		pfs:     clus.PFS,
		m:       m,
		rec:     r.rec,
		cm:      cm,
		ip:      r.ip,
		agent:   &r.lb,
	}
	if local == nil {
		r.ck.loc = LocDirectPFS
	}
	// Shadows start with writes disabled but may be promoted mid-job, so the
	// copier thread is started whenever the model checkpoints at all.
	if spec.Model.Checkpointing() && r.ck.loc == LocLocalCopier {
		r.cp = startCopier(clus.Sim, fmt.Sprintf("copier-r%d-%s", c.Self().WorldRank(), spec.JobID),
			spec.JobID, local, clus.PFS, c.Self().CPU(), m)
		r.cp.rec = r.rec
		r.ck.cp = r.cp
		// The copier is a thread of the rank process: it dies with it, so
		// un-drained local checkpoints are genuinely lost on failure.
		cp := r.cp
		c.Proc().OnKill(func() { clus.Sim.Kill(cp.proc) })
	}
	r.rd = &ckptReader{
		jobID:    spec.JobID,
		pfs:      clus.PFS,
		local:    local,
		prefetch: spec.Prefetch && local != nil,
		m:        m,
		rec:      r.rec,
		cm:       cm,
		staged:   make(map[string]bool),
	}
	if spec.ReplicaK > 0 && r.ck.enabled {
		r.rep = newReplicator(r, spec.ReplicaK)
		r.ck.rep = r.rep
		r.rd.rs = r.rep.store
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

// myWorld returns this rank's world rank.
func (r *runner) myWorld() int { return r.comm.Self().WorldRank() }

// run executes phases from the current phase index to completion. On a
// communication error it returns immediately; the caller decides whether to
// recover (detect/resume) or give up (checkpoint/restart and MR-MPI mode).
func (r *runner) run() error {
	for r.phase < phDone {
		ph := phaseNames[r.phase]
		r.job.h.notifyPhase(r.myWorld(), ph)
		t0 := r.p.Now()
		r.rec.PhaseBegin(string(ph))
		r.ip.SetPhase(string(ph))
		var err error
		switch r.phase {
		case phInit:
			err = r.phaseInit()
			if err == nil {
				// Checkpoint/restart resume: restore this rank's partition
				// state (and truncate uncommitted output) before any work.
				err = r.resumePrepare()
			}
		case phMap:
			err = r.phaseMap()
		case phShuffle:
			err = r.phaseShuffle()
		case phConvert:
			err = r.phaseConvert()
		case phReduce:
			err = r.phaseReduce()
		}
		r.m.PhaseTime[ph] += r.p.Now() - t0
		r.rec.PhaseEnd(string(ph))
		if err != nil {
			return err
		}
		if r.rep != nil {
			// Fold banked replica pushes in at every phase boundary: the
			// barrier that just completed guarantees every pre-barrier eager
			// push has been delivered to this rank's mailbox.
			r.rep.drain()
		}
		if r.ftm != nil && r.ftm.mirror {
			// Same boundary guarantee for the primary's reduce-progress
			// sync pushes.
			r.drainShadowSync()
		}
		r.phase++
	}
	return nil
}

// shutdown stops agent threads.
func (r *runner) shutdown() {
	if r.cp != nil {
		r.cp.stop()
	}
}

// ---------------------------------------------------------------- phases --

// phaseInit builds the deterministic task table (§3.3: every master
// enumerates and splits the input identically, so no coordination is
// needed) and charges the metadata cost.
func (r *runner) phaseInit() error {
	clus := r.job.clus
	tasks := r.job.h.jobTasks(r.job.jobIdx, r.spec.InputPrefix)
	r.tt = newTaskTable(tasks, r.nParts)
	// Remap initial owners onto the participating world ranks (the hash
	// assigns 0..n-1 slots; world0 maps slots to actual ranks — or, under a
	// replication model, the acting primaries map slots to ranks).
	for i := range r.tt.owner {
		if r.ftm != nil {
			r.tt.owner[i] = r.ftm.acting[r.tt.owner[i]%len(r.ftm.acting)]
		} else {
			r.tt.owner[i] = r.world0[r.tt.owner[i]%len(r.world0)]
		}
	}
	// Metadata traversal: one PFS op per 64 chunks.
	r.m.IOWait += clus.PFS.Charge(r.p, len(tasks)/64+1, 0)
	for _, id := range r.tt.mine(r.myWorld()) {
		r.backlogBytes += float64(r.tt.tasks[id].Chunk.Size)
	}
	return r.net(func() error { return r.comm.Barrier() })
}

// kvEmitter collects a mapper's output, partitioning into mapOut and
// retaining the raw delta for checkpointing.
type kvEmitter struct {
	r     *runner
	delta *kvbuf.KV // uncheckpointed emitted pairs (record granularity)
	task  *kvbuf.KV // whole-task pairs (chunk granularity)
	bytes int
}

// Emit implements KVWriter.
func (e *kvEmitter) Emit(k, v []byte) {
	part := kvbuf.PartitionKey(k, e.r.nParts)
	out := e.r.mapOut[part]
	if out == nil {
		out = kvbuf.NewKV()
		e.r.mapOut[part] = out
	}
	out.Add(k, v)
	e.bytes += len(k) + len(v) + 8
	if e.delta != nil {
		e.delta.Add(k, v)
	}
	if e.task != nil {
		e.task.Add(k, v)
	}
}

// phaseMap runs every map task this rank currently owns (Algorithm 1).
func (r *runner) phaseMap() error {
	if r.ftm != nil && r.ftm.mirror {
		return r.mirrorMap()
	}
	mapper := r.spec.NewMapper()
	reader := r.spec.NewReader()
	for {
		// Tasks may be added by recovery; re-scan until none pending.
		ids := r.tt.mine(r.myWorld())
		if len(ids) == 0 {
			break
		}
		for _, id := range ids {
			if err := r.runMapTask(id, mapper, reader); err != nil {
				return err
			}
			r.tt.done[id] = true
			r.backlogBytes -= float64(r.tt.tasks[id].Chunk.Size)
			r.gossipStatus()
		}
	}
	r.drainStatus()
	r.ck.phaseSync(r.p)
	return r.net(func() error { return r.comm.Barrier() })
}

// runMapTask executes (or restores) one map task with fine-grained commits.
func (r *runner) runMapTask(id int, mapper Mapper, reader FileRecordReader) error {
	t0 := r.p.Now()
	r.ip.SetTask(id)
	defer r.ip.SetTask(introspect.NoValue)
	task := r.tt.tasks[id]
	clus := r.job.clus
	ctx := &TaskContext{proc: r.p, run: r}
	stream := mapStream(id)

	// Recovery/restart: replay whatever this task's checkpoint stream holds.
	restoredRecs := uint32(0)
	taskComplete := false
	// recoveryTask: this execution re-does work that a previous attempt (or
	// a failed process) already performed, so its map CPU counts as
	// reprocessing in the Figure 3 recovery decomposition. Adopted tasks
	// count even without checkpoints (the NWC model re-runs them fully).
	recoveryTask := r.spec.Resume || r.adopted(id)
	if r.recovering(id) {
		frames := r.rd.load(r.p, stream)
		restoreBytes := 0
		for _, f := range frames {
			switch f.kind {
			case frameMapDelta:
				if kv, err := kvbuf.FromBytes(f.payload); err == nil {
					r.injectKV(kv)
					restoreBytes += kv.Size()
					if f.b > restoredRecs {
						restoredRecs = f.b
					}
				}
			case frameTaskDone:
				if len(f.payload) > 0 { // chunk granularity: full task KV
					if kv, err := kvbuf.FromBytes(f.payload); err == nil {
						r.injectKV(kv)
						restoreBytes += kv.Size()
					}
				}
				restoredRecs = f.b
				taskComplete = true
			}
		}
		if restoreBytes > 0 {
			t1 := r.p.Now()
			r.compute(float64(restoreBytes) * restoreCPUPerByte)
			r.m.RecordsRestored += int64(restoredRecs)
			d := r.p.Now() - t1
			r.m.Recovery.LoadCkpt += d
			r.rec.RecoveryStage("load", d)
		}
		if taskComplete {
			// Static keeps the paper's behaviour of sampling every completed
			// task, but a fully-restored task only measures replay cost and
			// makes the rank look falsely fast; the trace model drops it.
			if r.lb.kind == LBStatic {
				r.lb.observe(task.Chunk.Size, (r.p.Now() - t0).Seconds(), r.p.Now())
			}
			r.rec.TaskCommit("map", id, int64(restoredRecs))
			r.cm.mapTaskDone((r.p.Now() - t0).Seconds())
			return nil
		}
	}

	// Read the chunk (the library owns all file I/O; the user's reader only
	// tokenizes, §3.2). Transient read faults are retried (bounded); a
	// whole-tier outage is waited out — input lives only on the PFS, so the
	// job stalls through the window instead of aborting.
	data, d, err := clus.PFS.ReadFile(r.p, task.Chunk.File)
	r.m.IOWait += d
	for attempt := 0; err != nil; {
		if errors.Is(err, storage.ErrTierOutage) {
			clus.PFS.AwaitOnline(r.p)
		} else if !errors.Is(err, storage.ErrReadFault) || attempt >= 2 {
			break
		} else {
			attempt++
		}
		data, d, err = clus.PFS.ReadFile(r.p, task.Chunk.File)
		r.m.IOWait += d
	}
	if err != nil {
		return fmt.Errorf("core: read chunk %s: %w", task.Chunk.File, err)
	}
	if err := reader.Open(task.Chunk, data); err != nil {
		return err
	}
	defer reader.Close()

	em := &kvEmitter{r: r}
	if r.ck.enabled && r.spec.Granularity == GranRecord {
		em.delta = kvbuf.NewKV()
	}
	if r.ck.enabled && r.spec.Granularity == GranChunk {
		em.task = kvbuf.NewKV()
	}

	interval := r.spec.CkptInterval
	batch := mapBatch
	if r.ck.enabled && r.spec.Granularity == GranRecord && interval < batch {
		batch = interval
	}

	rec := uint32(0)
	lastCommit := uint32(0)
	var cpuAcc float64
	var skipAcc float64
	nInBatch := 0

	flushBatch := func() error {
		if skipAcc > 0 {
			t1 := r.p.Now()
			r.compute(skipAcc)
			d := r.p.Now() - t1
			r.m.Recovery.Skip += d
			r.rec.RecoveryStage("skip", d)
			skipAcc = 0
		}
		t1 := r.p.Now()
		r.compute(cpuAcc)
		if recoveryTask {
			d := r.p.Now() - t1
			r.m.Recovery.Reprocess += d
			r.rec.RecoveryStage("reprocess", d)
		}
		cpuAcc = 0
		nInBatch = 0
		// Commit boundary: flush a record-granularity delta frame.
		if em.delta != nil && rec > restoredRecs {
			committed := rec / uint32(interval) * uint32(interval)
			if committed > lastCommit && em.delta.Len() > 0 {
				fr := encodeFrame(nil, frameMapDelta, uint32(id), rec, em.delta.Bytes())
				r.ck.write(r.p, stream, fr, 1)
				em.delta.Reset()
				lastCommit = committed
			}
		}
		return nil
	}

	for {
		k, v, ok, err := reader.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if rec < restoredRecs {
			// Already committed before the failure: skip cheaply (§4.1.2:
			// "read the input data and skip the processed records").
			skipAcc += mapper.Cost(k, v) * r.spec.SkipCostFactor
			r.m.RecordsSkipped++
		} else {
			if err := mapper.Map(ctx, k, v, em); err != nil {
				return err
			}
			cpuAcc += mapper.Cost(k, v)
			r.m.RecordsMapped++
		}
		rec++
		nInBatch++
		if nInBatch >= batch {
			if err := flushBatch(); err != nil {
				return err
			}
		}
	}
	if err := flushBatch(); err != nil {
		return err
	}
	// Partitioning cost for the emitted volume, plus the intermediate-data
	// spill: MR-MPI "flushes the intermediate data to disks when one input
	// chunk is processed" (§4.1.2) — both the baseline and FT-MRMPI pay it.
	r.compute(float64(em.bytes) * partitionCPUPerByte)
	if em.bytes > 0 {
		scratch := clus.LocalOf(r.myWorld())
		if scratch == nil {
			scratch = clus.PFS
		}
		r.m.IOWait += scratch.Charge(r.p, em.bytes/65536+1, em.bytes)
	}

	// Task-complete marker (with the full task KV under chunk granularity).
	if r.ck.enabled {
		var payload []byte
		if em.task != nil {
			payload = em.task.Bytes()
		} else if em.delta != nil && em.delta.Len() > 0 {
			// Commit the trailing records too.
			fr := encodeFrame(nil, frameMapDelta, uint32(id), rec, em.delta.Bytes())
			r.ck.write(r.p, stream, fr, 1)
			em.delta.Reset()
		}
		fr := encodeFrame(nil, frameTaskDone, uint32(id), rec, payload)
		r.ck.write(r.p, stream, fr, 1)
	}
	r.lb.observe(task.Chunk.Size, (r.p.Now() - t0).Seconds(), r.p.Now())
	r.rec.TaskCommit("map", id, int64(rec))
	r.cm.mapTaskDone((r.p.Now() - t0).Seconds())
	return nil
}

// injectKV re-partitions restored pairs into mapOut.
func (r *runner) injectKV(kv *kvbuf.KV) {
	_ = kv.ForEach(func(k, v []byte) {
		part := kvbuf.PartitionKey(k, r.nParts)
		out := r.mapOut[part]
		if out == nil {
			out = kvbuf.NewKV()
			r.mapOut[part] = out
		}
		out.Add(k, v)
	})
}

// adopted reports whether a task has been reassigned away from its hash
// home (i.e. its original owner failed).
func (r *runner) adopted(taskID int) bool {
	var home int
	if r.ftm != nil {
		home = r.ftm.acting0[assignTask(taskID, r.nParts)%len(r.ftm.acting0)]
	} else {
		home = r.world0[assignTask(taskID, r.nParts)%len(r.world0)]
	}
	return r.tt.owner[taskID] != home
}

// recovering reports whether this map task may have checkpoint state to
// replay (restart resume, or in-place recovery of an adopted task).
func (r *runner) recovering(taskID int) bool {
	if !r.spec.Model.Checkpointing() {
		return false
	}
	return r.spec.Resume || r.adopted(taskID)
}

// gossipStatus sends the merged done-bitmap to the ring successor (§3.3:
// masters periodically broadcast local task status).
func (r *runner) gossipStatus() {
	r.gossip++
	if r.gossip%r.spec.StatusEvery != 0 || r.comm.Size() < 2 {
		return
	}
	r.drainStatus()
	next := (r.comm.Rank() + 1) % r.comm.Size()
	_ = r.net(func() error { return r.comm.Send(next, r.statusTag, r.tt.doneBitmap()) })
}

// drainStatus merges any pending status messages (and, with replication
// on, folds in any banked replica pushes — same opportunistic cadence).
func (r *runner) drainStatus() {
	if r.rep != nil {
		r.rep.drain()
	}
	for {
		m, ok, err := r.comm.TryRecv(mpi.AnySource, r.statusTag)
		if err != nil || !ok {
			return
		}
		r.tt.mergeBitmap(m.Data)
	}
}

// phaseShuffle exchanges the partitioned map output so each partition's
// owner holds all its pairs, then checkpoints the received buffers.
func (r *runner) phaseShuffle() error {
	if r.ftm != nil {
		return r.shuffleReplicate()
	}
	// If every rank restored its partitions from checkpoints (restart after
	// a reduce-phase failure), the exchange can be skipped — agreement by
	// allreduce-min.
	have := int64(1)
	if !r.shuffled {
		have = 0
	}
	var all int64
	err := r.net(func() error {
		v, e := r.comm.AllreduceInt64(have, func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		})
		all = v
		return e
	})
	if err != nil {
		return err
	}
	if all == 1 {
		return nil
	}

	// Local pre-reduction (MR-MPI's "compress"): fold each partition's
	// pairs before they travel. Runs at every shuffle (re-)execution;
	// combiners must therefore be idempotent over their own output.
	if r.spec.NewCombiner != nil {
		if err := r.combineLocal(); err != nil {
			return err
		}
	}

	// Build one buffer per destination rank bundling the partitions it owns.
	// One pass over the partitions (ascending, so each destination's bundle
	// keeps the same frame order as the old per-destination scan) via an
	// inverse owner map — a nested ranks×partitions scan is O(W²) per rank
	// at scale.
	n := r.comm.Size()
	bufs := make([][]byte, n)
	commOf := make(map[int]int, n)
	for d := 0; d < n; d++ {
		commOf[r.comm.WorldRank(d)] = d
	}
	for part := 0; part < r.nParts; part++ {
		d, ok := commOf[r.partOwner[part]]
		if !ok {
			continue
		}
		kv := r.mapOut[part]
		var payload []byte
		if kv != nil {
			payload = kv.Bytes()
		}
		bufs[d] = encodeFrame(bufs[d], frameShuffle, uint32(part), 0, payload)
	}
	var recv [][]byte
	t1 := r.p.Now()
	err = r.net(func() error {
		out, e := r.comm.Alltoallv(bufs)
		recv = out
		return e
	})
	r.m.Counters["shuf_a2av_us"] += int64((r.p.Now() - t1) / 1000)
	if err != nil {
		return err
	}
	// Merge received bundles; rebuild owned partitions from scratch so the
	// exchange is idempotent under recovery re-runs.
	r.parts = make(map[int]*kvbuf.KV)
	r.kmv = make(map[int]*kvbuf.KMV)
	for _, b := range recv {
		fs, err := decodeFrames(b)
		if err != nil {
			// Shuffle bundles travel over the (fault-free) network; a decode
			// failure here is a framing bug, not a storage fault.
			return fmt.Errorf("core: shuffle bundle: %w", err)
		}
		for _, f := range fs {
			if f.kind != frameShuffle {
				continue
			}
			part := int(f.a)
			dst := r.parts[part]
			if dst == nil {
				dst = kvbuf.NewKV()
				r.parts[part] = dst
			}
			if len(f.payload) > 0 {
				kv, err := kvbuf.FromBytes(f.payload)
				if err != nil {
					return err
				}
				dst.Append(kv)
				r.m.ShuffleBytes += int64(kv.Size())
			}
		}
	}
	r.shuffled = true
	// Checkpoint the post-shuffle state of each owned partition (§3.2:
	// tracing send/receive of each buffer culminates in a consistent
	// partition snapshot).
	t1 = r.p.Now()
	if r.ck.enabled {
		for _, part := range r.ownedParts() {
			kv := r.parts[part]
			var payload []byte
			if kv != nil {
				payload = kv.Bytes()
			}
			fr := encodeFrame(nil, frameShuffle, uint32(part), 0, payload)
			r.ck.write(r.p, partStream(part), fr, 1)
		}
	}
	r.m.Counters["shuf_ckpt_us"] += int64((r.p.Now() - t1) / 1000)
	t1 = r.p.Now()
	r.ck.phaseSync(r.p)
	r.m.Counters["shuf_drain_us"] += int64((r.p.Now() - t1) / 1000)
	t1 = r.p.Now()
	err = r.net(func() error { return r.comm.Barrier() })
	r.m.Counters["shuf_barrier_us"] += int64((r.p.Now() - t1) / 1000)
	return err
}

// combineLocal applies the user combiner to every partition of this rank's
// map output, charging grouping I/O and per-group compute.
func (r *runner) combineLocal() error {
	comb := r.spec.NewCombiner()
	ctx := &TaskContext{proc: r.p, run: r}
	clus := r.job.clus
	scratch := clus.LocalOf(r.myWorld())
	if scratch == nil {
		scratch = clus.PFS
	}
	parts := make([]int, 0, len(r.mapOut))
	for part := range r.mapOut {
		parts = append(parts, part)
	}
	sort.Ints(parts)
	var cpuAcc float64
	for _, part := range parts {
		kv := r.mapOut[part]
		if kv == nil || kv.Len() == 0 {
			continue
		}
		m, st := kvbuf.ConvertTwoPass(kv)
		r.m.IOWait += scratch.Charge(r.p, st.ReadOps+st.WriteOps, st.Total())
		out := kvbuf.NewKV()
		var cerr error
		m.ForEach(func(key []byte, vals [][]byte) {
			if cerr != nil {
				return
			}
			v, err := comb.Combine(ctx, key, vals)
			if err != nil {
				cerr = err
				return
			}
			out.Add(key, v)
			cpuAcc += comb.Cost(key, vals)
		})
		if cerr != nil {
			return cerr
		}
		r.mapOut[part] = out
	}
	r.compute(cpuAcc)
	return nil
}

// ownedParts returns this rank's partitions, ascending.
func (r *runner) ownedParts() []int {
	var out []int
	me := r.myWorld()
	for part, o := range r.partOwner {
		if o == me {
			out = append(out, part)
		}
	}
	return out
}

// phaseConvert groups each owned partition's KV into KMV using the
// configured algorithm, charging the algorithm's real data movement against
// the local scratch disk (§5.2).
func (r *runner) phaseConvert() error {
	if r.ftm != nil && r.ftm.mirror {
		return r.mirrorConvert()
	}
	clus := r.job.clus
	scratch := clus.LocalOf(r.myWorld())
	if scratch == nil {
		scratch = clus.PFS
	}
	for _, part := range r.ownedParts() {
		if r.kmv[part] != nil {
			continue // restored from checkpoint
		}
		kv := r.parts[part]
		if kv == nil {
			kv = kvbuf.NewKV()
		}
		var m *kvbuf.KMV
		var st kvbuf.ConvertStats
		if r.spec.Convert == ConvertFourPass {
			m, st = kvbuf.ConvertFourPass(kv)
		} else {
			m, st = kvbuf.ConvertTwoPass(kv)
		}
		r.kmv[part] = m
		r.m.IOWait += scratch.Charge(r.p, st.ReadOps+st.WriteOps, st.Total())
		r.compute(float64(st.Total()) * convertCPUPerByte)
		// The conversion result is NOT checkpointed: the shuffle snapshot
		// already makes the partition durable, and recovery simply
		// re-converts (trading a little reprocessing for half the
		// checkpoint volume). frameConvert remains supported on the read
		// path for streams produced by older runs.
	}
	r.ck.phaseSync(r.p)
	return r.net(func() error { return r.comm.Barrier() })
}

// outputWriter buffers serialized output records for one partition.
type outputWriter struct {
	buf       []byte
	serialize func(k, v []byte) []byte
}

// Write implements RecordWriter.
func (w *outputWriter) Write(k, v []byte) {
	w.buf = append(w.buf, w.serialize(k, v)...)
}

func defaultSerialize(k, v []byte) []byte {
	out := make([]byte, 0, len(k)+len(v)+2)
	out = append(out, k...)
	out = append(out, '\t')
	out = append(out, v...)
	return append(out, '\n')
}

// outputPath returns the PFS path of a partition's reduce output.
func outputPath(jobID string, part int) string {
	return fmt.Sprintf("out/%s/part-%05d", jobID, part)
}

// phaseReduce runs the user reduce function over each owned partition's
// groups, committing progress (and output) every CkptInterval groups.
func (r *runner) phaseReduce() error {
	if r.ftm != nil && r.ftm.mirror {
		return r.mirrorReduce()
	}
	reducer := r.spec.NewReducer()
	clus := r.job.clus
	ctx := &TaskContext{proc: r.p, run: r}
	interval := uint32(r.spec.CkptInterval)
	if interval == 0 {
		interval = 100
	}
	scratch := clus.LocalOf(r.myWorld())
	if scratch == nil {
		scratch = clus.PFS
	}
	for _, part := range r.ownedParts() {
		pt0 := r.p.Now()
		m := r.kmv[part]
		if m == nil {
			m = &kvbuf.KMV{}
		}
		// Read the converted partition back from the scratch disk.
		if n := m.Bytes(); n > 0 {
			r.m.IOWait += scratch.Charge(r.p, n/65536+1, n)
		}
		start := r.reduceDone[part]
		it := &kmvIterator{keys: m.Keys, vals: m.Vals, pos: int(start)}
		w := &outputWriter{serialize: defaultSerialize}
		var cpuAcc float64
		g := start
		commit := func() error {
			r.compute(cpuAcc)
			cpuAcc = 0
			if len(w.buf) > 0 {
				path := outputPath(r.spec.JobID, part)
				for attempt := 0; ; attempt++ {
					pre := clus.PFS.Size(path)
					d, err := clus.PFS.AppendFile(r.p, path, w.buf, 1)
					r.m.IOWait += d
					if err == nil {
						break
					}
					// Torn output append: roll back to the pre-append length
					// and retry, keeping committed bytes byte-exact. A
					// whole-PFS outage stalls the commit through the window
					// without consuming the retry budget.
					clus.PFS.Truncate(path, pre)
					if errors.Is(err, storage.ErrTierOutage) {
						clus.PFS.AwaitOnline(r.p)
						attempt--
						continue
					}
					if attempt >= 7 {
						return fmt.Errorf("core: output commit for partition %d: %w", part, err)
					}
				}
				r.outLen[part] += uint64(len(w.buf))
				w.buf = w.buf[:0]
			}
			r.reduceDone[part] = g
			if r.ck.enabled {
				var lenBuf [8]byte
				binary.LittleEndian.PutUint64(lenBuf[:], r.outLen[part])
				fr := encodeFrame(nil, frameReduce, uint32(part), g, lenBuf[:])
				r.ck.write(r.p, partStream(part), fr, 1)
			}
			r.rec.TaskCommit("reduce", part, int64(g))
			r.cm.taskCommit()
			r.pushShadowSync(part, g)
			return nil
		}
		for {
			key, vals, ok := it.Next()
			if !ok {
				break
			}
			if err := reducer.Reduce(ctx, key, vals, w); err != nil {
				return err
			}
			cpuAcc += reducer.Cost(key, vals)
			r.m.GroupsReduced++
			g++
			if g%interval == 0 {
				if err := commit(); err != nil {
					return err
				}
			}
		}
		if err := commit(); err != nil {
			return err
		}
		r.cm.reducePartDone((r.p.Now() - pt0).Seconds())
	}
	r.ck.phaseSync(r.p)
	return r.net(func() error { return r.comm.Barrier() })
}

// ----------------------------------------------------------- DR recovery --

// drErrHandler is the detect/resume error handler: the first rank to see a
// process failure revokes the communicator, interrupting everyone (§4.2.1).
func drErrHandler(c *mpi.Comm, err error) {
	var pf *mpi.ProcFailedError
	if errors.As(err, &pf) {
		c.Self().Recorder().FailureDetect(pf.Ranks)
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
	r.cm.recoveryAttempt()
	// Surface the recovery window to phase observers (the failure injector
	// uses this to aim kills *inside* recovery).
	r.job.h.notifyPhase(r.myWorld(), PhaseRecovery)
	// Every survivor passes through here exactly once per episode: record the
	// detect→revoke observation before the shrink/agree steps the Shrink call
	// emits, so each survivor's stream shows the full causal chain.
	r.rec.RecoveryBegin()
	r.rec.FailureDetect(nil)
	r.rec.Revoke("observed")
	// On an interrupted attempt, close this span when bailing out with an
	// error: the caller will open a fresh one for the restarted attempt. (A
	// kill unwinds via panic with err == nil, correctly leaving the dead
	// rank's span open.)
	defer func() {
		if err != nil {
			d := r.p.Now() - t0
			r.m.Recovery.Init += d
			r.m.PhaseTime[PhaseRecovery] += d
			r.rec.RecoveryStage("init", d)
			r.rec.RecoveryEnd()
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
	claimedTask := make(map[int]bool)
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
		if r.tt.done[id] {
			lostDone = append(lostDone, id)
		} else {
			lostPending = append(lostPending, id)
		}
	}

	wc := r.spec.Model == ModelDetectResumeWC
	pfs := r.job.clus.PFS

	if r.pureFailover(lost, lostPending, lostDone) {
		// Replication failover covered everything the dead ranks held: the
		// promoted shadows claimed their pairs' tasks and partitions from
		// their own memory, so nothing is lost — no reassignment, no replay,
		// no PFS restore, and no phase rewind beyond the survivors' minimum.
	} else if r.phaseAtLeast(minPhase, phShuffle) && len(lostPending) == 0 {
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
			// Non-work-conserving recovery: "the surviving processes
			// recover the lost work by re-running all the tasks from the
			// failed processes" — including completed tasks whose output
			// lived only in dead memory.
			r.markNotDone(lostDone)
			lostTasks := append(lostDone, lostPending...)
			r.redistributeTasks(lostTasks, models, wc)
			if err := r.exchangeReplicas(nil, lostTasks); err != nil {
				return err
			}
			r.shuffled = false
			for _, part := range lost {
				if r.partOwner[part] == r.myWorld() {
					r.reduceDone[part] = 0
					r.outLen[part] = 0
					r.truncateOutput(part)
				}
			}
			minPhase = phMap
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
		// shuffle has destinations; unclaimed work is redistributed, with
		// completed-but-lost tasks re-run (restorably under WC).
		r.reassign(lost, models, func(int) float64 { return 1 })
		for _, part := range lost {
			if r.partOwner[part] == r.myWorld() {
				r.reduceDone[part] = 0
				r.outLen[part] = 0
				r.truncateOutput(part)
			}
		}
		r.markNotDone(lostDone)
		lostTasks := append(lostDone, lostPending...)
		r.redistributeTasks(lostTasks, models, wc)
		if err := r.exchangeReplicas(nil, lostTasks); err != nil {
			return err
		}
		r.shuffled = false
		minPhase = phMap
	}

	r.phase = minPhase
	d := r.p.Now() - t0
	r.m.Recovery.Init += d
	r.m.PhaseTime[PhaseRecovery] += d
	r.rec.RecoveryStage("init", d)
	r.rec.RecoveryEnd()
	return nil
}

// phaseAtLeast reports whether ph has reached the target phase.
func (r *runner) phaseAtLeast(ph, target int) bool { return ph >= target }

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

// markNotDone clears the done flags of tasks whose output was lost.
func (r *runner) markNotDone(ids []int) {
	for _, id := range ids {
		r.tt.done[id] = false
	}
}

// reassign gives lost partitions new owners among the survivors, using the
// load-balancer models when enabled (§3.4).
func (r *runner) reassign(lost []int, models []lbModel, weight func(int) float64) {
	if len(lost) == 0 {
		return
	}
	r.rec.LoadBalance("parts", len(lost), r.comm.Size())
	var assignment [][]int
	if r.spec.LoadBalance {
		pieces := make([]float64, len(lost))
		for i, part := range lost {
			pieces[i] = weight(part)
		}
		assignment = balanceWork(models, pieces)
	} else {
		assignment = evenSplit(r.comm.Size(), len(lost))
	}
	for surv, pieceIdxs := range assignment {
		w := r.comm.WorldRank(surv)
		if r.ftm != nil {
			// Never park partitions on a dedicated mirror; its acting
			// primary owns them and the mirror follows.
			w = r.ftm.redirectToActing(w)
		}
		for _, pi := range pieceIdxs {
			r.partOwner[lost[pi]] = w
		}
	}
}

// redistributeTasks hands unclaimed task ids to survivors deterministically
// (restorable=true weights restorable tasks cheaper; their checkpoint
// streams are replayed instead of fully re-run).
func (r *runner) redistributeTasks(lostIDs []int, models []lbModel, restorable bool) {
	if len(lostIDs) == 0 {
		return
	}
	r.rec.LoadBalance("tasks", len(lostIDs), r.comm.Size())
	sort.Ints(lostIDs)
	var assignment [][]int
	if r.spec.LoadBalance {
		pieces := make([]float64, len(lostIDs))
		for i, id := range lostIDs {
			pieces[i] = float64(r.tt.tasks[id].Chunk.Size)
			if restorable {
				// Restoring a committed task is cheaper than re-running it.
				pieces[i] *= 0.3
			}
		}
		assignment = balanceWork(models, pieces)
	} else {
		assignment = evenSplit(r.comm.Size(), len(lostIDs))
	}
	for surv, pieceIdxs := range assignment {
		w := r.comm.WorldRank(surv)
		if r.ftm != nil {
			// Tasks land on acting primaries; mirrors re-execute them by
			// mirroring their pair, never as owners.
			w = r.ftm.redirectToActing(w)
		}
		for _, pi := range pieceIdxs {
			r.tt.owner[lostIDs[pi]] = w
			if w == r.myWorld() {
				r.backlogBytes += float64(r.tt.tasks[lostIDs[pi]].Chunk.Size)
			}
		}
	}
	// Every rank must participate in the shuffle again so adopted tasks'
	// output reaches its partitions; rebuilding is idempotent.
	r.shuffled = false
}

// hasShuffleSnapshot reports whether a partition's checkpoint stream holds a
// decodable post-shuffle snapshot. Mere existence of the stream is not
// enough once streams can be torn or corrupted: work-conserving adoption of
// a partition whose snapshot frame was lost would silently drop its data.
func (r *runner) hasShuffleSnapshot(part int) bool {
	pfs := r.job.clus.PFS
	data, err := pfs.Peek(ckptPath(r.spec.JobID, partStream(part)))
	if errors.Is(err, storage.ErrTierOutage) {
		pfs.AwaitOnline(r.p)
		data, err = pfs.Peek(ckptPath(r.spec.JobID, partStream(part)))
	}
	if err != nil {
		return false
	}
	frames, _, _ := decodeFramesPrefix(data)
	return shuffleSnapshotIn(frames)
}

// shuffleSnapshotIn reports whether a decoded frame sequence carries a valid
// post-shuffle snapshot.
func shuffleSnapshotIn(frames []frame) bool {
	for _, f := range frames {
		if f.kind != frameShuffle {
			continue
		}
		if len(f.payload) == 0 {
			return true // a valid snapshot of an empty partition
		}
		if _, err := kvbuf.FromBytes(f.payload); err == nil {
			return true
		}
	}
	return false
}

// canRestorePartition reports whether this rank — the partition's new owner
// — can restore it work-conservingly from anywhere in the failover chain:
// its replica store (own mirror or peer-pushed copy, just topped up by
// exchangeReplicas) or the PFS.
func (r *runner) canRestorePartition(part int) bool {
	if r.rep != nil {
		if data, _ := r.rep.store.lookup(partStream(part)); data != nil {
			frames, _, _ := decodeFramesPrefix(data)
			if shuffleSnapshotIn(frames) {
				return true
			}
		}
	}
	return r.hasShuffleSnapshot(part)
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
			if !r.hasShuffleSnapshot(part) {
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
		if r.partOwner[part] == me && !r.canRestorePartition(part) {
			local = 1
			break
		}
	}
	var verdict int64
	err := r.net(func() error {
		v, e := r.comm.AllreduceInt64(local, func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
		verdict = v
		return e
	})
	return verdict == 1, err
}

// restorePartition loads an adopted partition's post-shuffle data,
// conversion result, and reduce progress from its checkpoint stream.
func (r *runner) restorePartition(part int) error {
	frames := r.rd.load(r.p, partStream(part))
	var kv *kvbuf.KV
	var m *kvbuf.KMV
	var groups uint32
	var outBytes uint64
	for _, f := range frames {
		switch f.kind {
		case frameShuffle:
			if k, err := kvbuf.FromBytes(f.payload); err == nil {
				kv = k
			}
		case frameConvert:
			if km, err := kvbuf.DecodeKMV(f.payload); err == nil {
				m = km
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
		r.rec.RecoveryStage("load", d)
	}
	if m != nil {
		r.kmv[part] = m
	}
	r.reduceDone[part] = groups
	r.outLen[part] = outBytes
	r.truncateOutput(part)
	return nil
}

// truncateOutput trims a partition's output file to its committed length
// (dropping any uncommitted tail a failure left behind).
func (r *runner) truncateOutput(part int) {
	path := outputPath(r.spec.JobID, part)
	pfs := r.job.clus.PFS
	data, err := pfs.Peek(path)
	if errors.Is(err, storage.ErrTierOutage) {
		// Skipping the truncation would leave a stale uncommitted tail in the
		// final output, so wait the outage out.
		pfs.AwaitOnline(r.p)
		data, err = pfs.Peek(path)
	}
	if err != nil {
		return
	}
	want := int(r.outLen[part])
	if len(data) > want {
		pfs.FS.Write("pfs:"+path, data[:want])
	}
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
	r.rec.LBFit(r.lb.kind.String(), a, b, len(r.lb.obs))
	r.cm.lbFit(a, b, r.lb.residualRMS(a, b), len(r.lb.obs))
	var buf []byte
	var tmp [8]byte
	buf = append(buf, byte(r.phase))
	binary.LittleEndian.PutUint32(tmp[:4], uint32(r.job.jobIdx))
	buf = append(buf, tmp[:4]...)
	bm := r.tt.doneBitmap()
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(bm)))
	buf = append(buf, tmp[:4]...)
	buf = append(buf, bm...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(r.myWorld()))
	buf = append(buf, tmp[:4]...)
	for _, f := range []float64{a, b, r.backlogBytes} {
		binary.LittleEndian.PutUint64(tmp[:], uint64(floatBits(f)))
		buf = append(buf, tmp[:]...)
	}
	mine := r.ownedParts()
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(mine)))
	buf = append(buf, tmp[:4]...)
	for _, p := range mine {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(p))
		buf = append(buf, tmp[:4]...)
	}
	owned := r.tt.ownedBy(r.myWorld())
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(owned)))
	buf = append(buf, tmp[:4]...)
	for _, t := range owned {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(t))
		buf = append(buf, tmp[:4]...)
	}
	// Trace-model extension: one trailing float64 (Debt seconds). Static
	// appends nothing, keeping its wire form — and hence the allgather's
	// virtual timing — byte-identical to the paper model.
	if r.lb.kind == LBTrace {
		binary.LittleEndian.PutUint64(tmp[:], floatBits(debt))
		buf = append(buf, tmp[:]...)
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
	vals := make([]float64, 3)
	for i := range vals {
		vals[i] = floatFrom(binary.LittleEndian.Uint64(data[i*8 : i*8+8]))
	}
	s.model.Intercept, s.model.Slope, s.model.Backlog = vals[0], vals[1], vals[2]
	data = data[24:]
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
		s.model.Debt = floatFrom(binary.LittleEndian.Uint64(data))
	default:
		return s, fmt.Errorf("core: survivor state: %d trailing bytes", len(data))
	}
	return s, nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// finishOutputs records the partitions this job produced (rank 0 only).
func (r *runner) finishOutputs() {
	if r.comm.Rank() != 0 {
		return
	}
	paths := make([]string, 0, r.nParts)
	for part := 0; part < r.nParts; part++ {
		paths = append(paths, outputPath(r.spec.JobID, part))
	}
	sort.Strings(paths)
	r.job.res.OutputPaths = paths
	// Completion marker for restarted/iterative jobs, committed atomically:
	// write a temp file (retrying torn writes) and rename it into place, so
	// a crash mid-write can never leave a marker that looks committed.
	pfs := r.job.clus.PFS
	marker := doneMarker(r.spec.JobID)
	tmp := marker + ".tmp"
	for attempt := 0; ; attempt++ {
		_, err := pfs.WriteFile(r.p, tmp, []byte("done"))
		if errors.Is(err, storage.ErrTierOutage) {
			// Completion must be recorded; wait the outage out without
			// burning the bounded torn-write retries.
			pfs.AwaitOnline(r.p)
			attempt--
			continue
		}
		if err == nil || attempt >= 3 {
			break
		}
	}
	if _, err := pfs.Rename(r.p, tmp, marker); err != nil {
		// The temp file vanished (shouldn't happen); fall back to a direct
		// marker write so completion is still recorded.
		_, _ = pfs.WriteFile(r.p, marker, []byte("done"))
	}
	// The job is durable in its outputs now; drop its checkpoint streams
	// unless the caller wants them kept for inspection.
	if !r.spec.KeepCheckpoints && r.spec.Model.Checkpointing() {
		r.job.clus.PFS.RemovePrefix(fmt.Sprintf("ckpt/%s/map/", r.spec.JobID))
		r.job.clus.PFS.RemovePrefix(fmt.Sprintf("ckpt/%s/part/", r.spec.JobID))
	}
}

// resumePrepare restores this rank's own partition state from checkpoints
// before the phase loop of a restarted job (checkpoint/restart model).
func (r *runner) resumePrepare() error {
	if !r.spec.Resume || !r.spec.Model.Checkpointing() {
		return nil
	}
	t0 := r.p.Now()
	r.rec.RecoveryBegin()
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
	r.rec.RecoveryEnd()
	return nil
}
