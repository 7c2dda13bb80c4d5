package core

import (
	"fmt"

	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/mpi"
)

// mapBatch is the number of records whose CPU/commit accounting is batched
// into one scheduling event (behaviour-neutral: there is no communication
// inside a chunk).
const mapBatch = 256

// phaseMap runs every map task the rank's role currently holds (Algorithm 1).
func (r *runner) phaseMap(ro *role) error {
	defer func() { r.bufs.chunk = nil }() // a whole chunk: not kept past map
	mapper := r.spec.NewMapper()
	reader := r.spec.NewReader()
	ran := false
	for {
		// Tasks may be added by recovery; re-scan until none pending.
		ids := ro.tasks()
		if len(ids) == 0 {
			break
		}
		for _, id := range ids {
			if err := ro.mapTask(id, mapper, reader); err != nil {
				return err
			}
		}
		ran = true
	}
	if ran || r.mirroring() {
		r.drainStatus()
	} else {
		// A master broadcasts its status after every task it completes; one
		// that had none in this pass still broadcasts once, as §3.3's
		// periodic broadcast does for an idle master.
		r.gossipStatus()
	}
	r.ck.phaseSync(r.p)
	return r.net(func() error { return r.comm.Barrier() })
}

// ownMapTask runs one of this rank's own map tasks and publishes its
// completion to the other masters.
func (r *runner) ownMapTask(id int, mapper Mapper, reader FileRecordReader) error {
	if err := r.runMapTask(id, mapper, reader); err != nil {
		return err
	}
	r.tt.setDone(id, true)
	r.backlogBytes -= float64(r.tt.tasks[id].Chunk.Size)
	r.gossipStatus()
	return nil
}

// openChunk reads a task's input chunk into the rank's chunk buffer and
// opens the user's reader on it (the library owns all file I/O; the user's
// reader only tokenizes, §3.2). The read is a copy, so a reader that writes
// into its chunk cannot reach the stored input recovery re-reads. Input lives
// only on the PFS, so an outage stalls the task instead of aborting the job.
func (r *runner) openChunk(task Task, reader FileRecordReader) error {
	data, err := readRetry(r.p, r.job.clus.PFS, task.Chunk.File, r.bufs.chunk, &r.m.IOWait)
	if err != nil {
		return fmt.Errorf("core: read chunk %s: %w", task.Chunk.File, err)
	}
	r.bufs.chunk = data
	return reader.Open(task.Chunk, data)
}

// scanRecords feeds the open chunk's records to each, calling flush after
// every batch records and once more at the end of the chunk.
func scanRecords(reader FileRecordReader, batch int, each func(k, v []byte) error, flush func()) error {
	n := 0
	for {
		k, v, ok, err := reader.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := each(k, v); err != nil {
			return err
		}
		if n++; n >= batch {
			flush()
			n = 0
		}
	}
	flush()
	return nil
}

// chargeEmitted bills a finished task for the volume it emitted: the
// hash-partitioning CPU plus the intermediate-data spill — MR-MPI "flushes
// the intermediate data to disks when one input chunk is processed"
// (§4.1.2), and both the baseline and FT-MRMPI pay it.
func (r *runner) chargeEmitted(bytes int) {
	r.compute(float64(bytes) * partitionCPUPerByte)
	if bytes > 0 {
		r.m.IOWait += r.scratch().Charge(r.p, bytes/65536+1, bytes)
	}
}

// kvEmitter is a map task's writer into the rank's map-output log. What the
// task checkpoints is a view of that log, never a second copy: its pairs are
// the log since the mark taken as it started (the chunk-granularity payload),
// its uncommitted delta the log since its last commit (record granularity).
type kvEmitter struct {
	log    *kvbuf.Log
	start  kvbuf.Mark // the task's first pair
	since  kvbuf.Mark // the first pair not yet committed
	pieces [][]byte   // scratch for the views handed to a commit
}

// newEmitter starts a task's output at the log's end, past any pairs the task
// restored (injectKV): those are already checkpointed.
func newEmitter(log *kvbuf.Log) *kvEmitter {
	m := log.Mark()
	return &kvEmitter{log: log, start: m, since: m}
}

// Emit implements KVWriter: one add to the log.
func (e *kvEmitter) Emit(k, v []byte) { e.log.Add(k, v) }

// bytes returns the encoded size of what the task has emitted.
func (e *kvEmitter) bytes() int { return e.log.SizeSince(e.start) }

// pending reports whether the task has emitted pairs since its last commit.
func (e *kvEmitter) pending() bool { return e.log.SizeSince(e.since) > 0 }

// delta returns the pairs emitted since the last commit, as pieces valid
// until the next call, and counts them committed.
func (e *kvEmitter) delta() [][]byte {
	e.pieces = e.log.Since(e.since, e.pieces[:0])
	e.since = e.log.Mark()
	return e.pieces
}

// all returns every pair the task has emitted, as pieces valid until the next
// call.
func (e *kvEmitter) all() [][]byte {
	e.pieces = e.log.Since(e.start, e.pieces[:0])
	return e.pieces
}

// injectKV appends pairs restored from a checkpoint to the map-output log.
func (r *runner) injectKV(kv *kvbuf.KV) {
	kv.ForEach(r.log.Add)
}

// runMapTask executes (or restores) one map task with fine-grained commits.
func (r *runner) runMapTask(id int, mapper Mapper, reader FileRecordReader) error {
	t0 := r.p.Now()
	r.obs.Probe.SetTask(id)
	defer r.obs.Probe.SetTask(introspect.NoValue)
	task := r.tt.tasks[id]
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
	if recoveryTask && r.spec.Model.Checkpointing() {
		frames := r.ck.load(r.p, stream)
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
			r.obs.Rec.RecoveryStage("load", d)
		}
		if taskComplete {
			// Static keeps the paper's behaviour of sampling every completed
			// task, but a fully-restored task only measures replay cost and
			// makes the rank look falsely fast; the trace model drops it.
			if r.lb.kind == LBStatic {
				r.lb.observe(task.Chunk.Size, (r.p.Now() - t0).Seconds(), r.p.Now())
			}
			r.obs.TaskCommit("map", id, int64(restoredRecs))
			r.obs.Core.MapTask.Observe((r.p.Now() - t0).Seconds())
			return nil
		}
	}

	if err := r.openChunk(task, reader); err != nil {
		return err
	}
	defer reader.Close()

	em := newEmitter(&r.log)
	byRecord := r.ck.enabled && r.spec.Granularity == GranRecord

	interval := r.spec.CkptInterval
	batch := mapBatch
	if byRecord && interval < batch {
		batch = interval
	}

	rec := uint32(0)
	lastCommit := uint32(0)
	var cpuAcc float64
	var skipAcc float64

	each := func(k, v []byte) error {
		if rec < restoredRecs {
			// Already committed before the failure: skip cheaply (§4.1.2:
			// "read the input data and skip the processed records").
			skipAcc += mapper.Cost(k, v) * skipCostFactor
			r.m.RecordsSkipped++
		} else {
			if err := mapper.Map(ctx, k, v, em); err != nil {
				return err
			}
			cpuAcc += mapper.Cost(k, v)
			r.m.RecordsMapped++
		}
		rec++
		return nil
	}
	flushBatch := func() {
		if skipAcc > 0 {
			t1 := r.p.Now()
			r.compute(skipAcc)
			d := r.p.Now() - t1
			r.m.Recovery.Skip += d
			r.obs.Rec.RecoveryStage("skip", d)
			skipAcc = 0
		}
		t1 := r.p.Now()
		r.compute(cpuAcc)
		if recoveryTask {
			d := r.p.Now() - t1
			r.m.Recovery.Reprocess += d
			r.obs.Rec.RecoveryStage("reprocess", d)
		}
		cpuAcc = 0
		// Commit boundary: flush a record-granularity delta frame.
		if byRecord && rec > restoredRecs {
			committed := rec / uint32(interval) * uint32(interval)
			if committed > lastCommit && em.pending() {
				r.ck.commit(r.p, stream, frameMapDelta, uint32(id), rec, em.delta()...)
				lastCommit = committed
			}
		}
	}
	if err := scanRecords(reader, batch, each, flushBatch); err != nil {
		return err
	}
	r.chargeEmitted(em.bytes())

	// Task-complete marker (with the task's pairs under chunk granularity).
	if r.ck.enabled {
		var payload [][]byte
		if r.spec.Granularity == GranChunk {
			payload = em.all()
		} else if em.pending() {
			// Commit the trailing records too.
			r.ck.commit(r.p, stream, frameMapDelta, uint32(id), rec, em.delta()...)
		}
		r.ck.commit(r.p, stream, frameTaskDone, uint32(id), rec, payload...)
	}
	r.lb.observe(task.Chunk.Size, (r.p.Now() - t0).Seconds(), r.p.Now())
	r.obs.TaskCommit("map", id, int64(rec))
	r.obs.Core.MapTask.Observe((r.p.Now() - t0).Seconds())
	return nil
}

// adopted reports whether a task has been reassigned away from its hash
// home (i.e. its original owner failed).
func (r *runner) adopted(taskID int) bool {
	return r.tt.ownerOf(taskID) != r.homes[assignTask(taskID, r.nParts)]
}

// gossipStatus sends the merged done-bitmap to the ring successor after every
// task completion (§3.3: masters periodically broadcast local task status).
// The message is a clone priced at its length: done flags are set in place,
// and a receiver reading the live table would learn of completions before
// their message arrived.
func (r *runner) gossipStatus() {
	if r.comm.Size() < 2 {
		return
	}
	r.drainStatus()
	next := (r.comm.Rank() + 1) % r.comm.Size()
	bm := r.tt.doneBitmap()
	_ = r.net(func() error { return r.comm.SendVal(next, r.statusTag, bm, len(bm)) })
}

// drainStatus merges any pending status messages (and, with replication
// on, folds in any banked replica pushes — same opportunistic cadence).
func (r *runner) drainStatus() {
	r.rep.drain()
	for {
		m, ok, err := r.comm.TryRecv(mpi.AnySource, r.statusTag)
		if err != nil || !ok {
			return
		}
		r.tt.mergeBitmap(m.Val.([]byte))
	}
}
