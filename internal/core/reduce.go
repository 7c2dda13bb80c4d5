package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ftmrmpi/internal/kvbuf"
	"ftmrmpi/internal/mpi"
	"ftmrmpi/internal/storage"
)

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

// scratch returns the tier that holds this rank's intermediate data: the
// node-local disk.
func (r *runner) scratch() *storage.Tier { return r.job.clus.LocalOf(r.myWorld()) }

// phaseConvert groups each of the role's partitions from KV into KMV and
// charges the configured algorithm's traffic against the local scratch disk
// (§5.2).
func (r *runner) phaseConvert(ro *role) error {
	scratch := r.scratch()
	for _, part := range ro.parts() {
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
		// checkpoint volume).
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

// phaseReduce runs the user reduce function over the groups of each of the
// role's partitions, committing progress (and output) every CkptInterval
// groups. What a commit does — a durable append plus a checkpoint frame, or
// staging in a shadow's memory — is the role's business.
func (r *runner) phaseReduce(ro *role) error {
	reducer := r.spec.NewReducer()
	ctx := &TaskContext{proc: r.p, run: r}
	interval := uint32(r.spec.CkptInterval)
	scratch := r.scratch()
	for _, part := range ro.parts() {
		pt0 := r.p.Now()
		m := r.kmv[part]
		if m == nil {
			m = &kvbuf.KMV{}
		}
		// Read the converted partition back from the scratch disk.
		if n := m.Bytes(); n > 0 {
			r.m.IOWait += scratch.Charge(r.p, n/65536+1, n)
		}
		g := ro.reduced(part)
		it := &kmvIterator{keys: m.Keys, vals: m.Vals, pos: int(g)}
		w := &outputWriter{serialize: defaultSerialize}
		var cpuAcc float64
		commit := func() error {
			r.compute(cpuAcc)
			cpuAcc = 0
			err := ro.commit(part, g, w.buf)
			w.buf = w.buf[:0]
			return err
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
			ro.group()
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
		ro.partDone(r.p.Now() - pt0)
	}
	r.ck.phaseSync(r.p)
	return r.net(func() error { return r.comm.Barrier() })
}

// commitOutput is a primary's reduce commit: append the batch's output to
// the partition's PFS file, then record the progress in the partition's
// checkpoint stream and on the live shadow.
func (r *runner) commitOutput(part int, g uint32, out []byte) error {
	if len(out) > 0 {
		if err := r.appendOutput(part, out); err != nil {
			return err
		}
		r.outLen[part] += uint64(len(out))
	}
	r.reduceDone[part] = g
	if r.ck.enabled {
		var lenBuf [8]byte
		binary.LittleEndian.PutUint64(lenBuf[:], r.outLen[part])
		r.ck.commit(r.p, partStream(part), frameReduce, uint32(part), g, lenBuf[:])
	}
	r.obs.TaskCommit("reduce", part, int64(g))
	r.pushShadowSync(part, g)
	return nil
}

// appendOutput appends committed bytes to a partition's output file. A torn
// append is rolled back and retried, keeping the committed bytes byte-exact;
// a whole-PFS outage stalls the commit through the window.
func (r *runner) appendOutput(part int, buf []byte) error {
	d, err := appendRollback(r.p, r.job.clus.PFS, outputPath(r.spec.JobID, part), buf, 1, outputAppendBudget, true)
	r.m.IOWait += d
	if err != nil {
		return fmt.Errorf("core: output commit for partition %d: %w", part, err)
	}
	return nil
}

// truncateOutput trims a partition's output file to its committed length
// (dropping any uncommitted tail a failure left behind). Skipping the
// truncation would leave that tail in the final output, so an outage is
// waited out.
func (r *runner) truncateOutput(part int) {
	path := outputPath(r.spec.JobID, part)
	pfs := r.job.clus.PFS
	// Only "the file exists and the tier is reachable" is asked, so read the
	// zero-length tail rather than copy the whole output to discard it.
	if _, err := peekOnline(r.p, pfs, path, pfs.Size(path)); err != nil {
		return
	}
	pfs.Truncate(path, int(r.outLen[part]))
}

// close ends a job every rank has run to its last phase. Comm rank 0 commits
// it (finishOutputs); under a masking model every survivor then enters a
// closing shrink before any of them leaves — ULFM's agreement at the end of a
// fault-tolerant region. A rank whose final barrier failed meets the others
// there, through recovery: were they already gone, its shrink would wait for
// them forever. A shrink that comes back smaller means a rank died after the
// final barrier (the committer, perhaps, before its marker was durable): the
// survivors note it, revoke the shrunken communicator — interrupting any
// recovery round already under way on it — and recover, and that round finds
// a rank past the final barrier and sends every survivor back here.
func (r *runner) close(masking bool) error {
	r.finishOutputs()
	if masking {
		nc, err := r.comm.Shrink()
		if err != nil {
			return err
		}
		if failed := r.adoptComm(nc); len(failed) > 0 {
			_ = r.comm.Revoke()
			return mpi.ErrRevoked
		}
	}
	// The job is durable in its outputs now; drop its checkpoint streams.
	if r.comm.Rank() == 0 && r.spec.Model.Checkpointing() {
		pfs := r.job.clus.PFS
		pfs.RemovePrefix(fmt.Sprintf("ckpt/%s/map/", r.spec.JobID))
		pfs.RemovePrefix(fmt.Sprintf("ckpt/%s/part/", r.spec.JobID))
	}
	return nil
}

// finishOutputs records the partitions this job produced and commits its
// DONE marker (comm rank 0 only).
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
	// write a temp file (retrying torn writes, waiting outages out) and
	// rename it into place, so a crash mid-write can never leave a marker
	// that looks committed.
	pfs := r.job.clus.PFS
	marker := doneMarker(r.spec.JobID)
	tmp := marker + ".tmp"
	_, _ = writeRetry(r.p, pfs, tmp, []byte("done"), markerWriteBudget)
	if _, err := pfs.Rename(r.p, tmp, marker); err != nil {
		// The temp file vanished (shouldn't happen); fall back to a direct
		// marker write so completion is still recorded.
		_, _ = pfs.WriteFile(r.p, marker, []byte("done"))
	}
}
