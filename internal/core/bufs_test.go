package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ftmrmpi/internal/mpi"
)

// TestChunkReadsRefillOneBuffer is the map input's allocation gate: a rank
// reads every chunk into its one chunk buffer, so once its first chunk has
// sized the buffer, reading a chunk no larger allocates nothing — and the
// reader sees exactly that chunk's bytes, none of a longer one read before.
func TestChunkReadsRefillOneBuffer(t *testing.T) {
	clus := testCluster(1, 1)
	large := bytes.Repeat([]byte("a line of the larger chunk\n"), 3000)
	small := bytes.Repeat([]byte("short\n"), 1000)
	clus.FS.Write("pfs:in/c/chunk-0", large)
	clus.FS.Write("pfs:in/c/chunk-1", small)
	mpi.Launch(clus, 1, func(c *mpi.Comm) {
		r := &runner{job: &jobCtx{clus: clus}, comm: c, p: c.Proc(), m: newRankMetrics(0), bufs: &rankBufs{}}
		reader := &LineRecordReader{}
		read := func(file string) {
			if err := r.openChunk(Task{Chunk: Chunk{File: file}}, reader); err != nil {
				t.Error(err)
			}
		}
		read("in/c/chunk-0") // the rank's first chunk sizes the buffer
		for _, tc := range []struct {
			file string
			want []byte
		}{{"in/c/chunk-1", small}, {"in/c/chunk-0", large}, {"in/c/chunk-1", small}} {
			if allocs := testing.AllocsPerRun(10, func() { read(tc.file) }); allocs != 0 {
				t.Errorf("reading %s (%d bytes) after a %d-byte chunk: %v allocations, want 0", tc.file, len(tc.want), len(large), allocs)
			}
			if !bytes.Equal(reader.data, tc.want) {
				t.Errorf("the reader of %s sees %d bytes that are not the file's %d", tc.file, len(reader.data), len(tc.want))
			}
		}
	})
	clus.Sim.Run()
}

// constReducer writes every key with one fixed value, allocating nothing, so
// that what a job's reduce phase allocates is the library's.
type constReducer struct{ val []byte }

func (r constReducer) Reduce(ctx *TaskContext, key []byte, vals [][]byte, out RecordWriter) error {
	out.Write(key, r.val)
	return nil
}
func (r constReducer) Cost(key []byte, vals [][]byte) float64 { return 1e-6 }

// reduceMallocs runs a one-rank, checkpointing job whose one partition
// reduces the given number of groups, committing every 128, and returns the
// allocations made from the start of its reduce phase to the end of the run.
func reduceMallocs(t *testing.T, groups int) uint64 {
	t.Helper()
	clus := testCluster(1, 1)
	var in strings.Builder
	for i := 0; i < groups; i++ {
		fmt.Fprintf(&in, "k%06d\n", i)
	}
	name := fmt.Sprintf("reduce-allocs-%d", groups)
	clus.FS.Write("pfs:in/"+name+"/chunk-0000", []byte(in.String()))
	spec := wcSpec(name, 1, ModelDetectResumeWC)
	spec.CkptInterval = 128
	spec.NewReducer = func() Reducer { return constReducer{val: []byte("1")} }
	h := RunSingle(clus, spec)
	var before, after runtime.MemStats
	h.OnPhase(func(_ int, ph Phase) {
		if ph == PhaseReduce {
			runtime.ReadMemStats(&before)
		}
	})
	clus.Sim.Run()
	runtime.ReadMemStats(&after)
	out, err := clus.PFS.Peek(outputPath(name, 0))
	if res := h.Result(); res.Aborted || err != nil || bytes.Count(out, []byte("\t1\n")) != groups {
		t.Fatalf("%d-group job: aborted=%v, or its output is not one line per group: %v", groups, res.Aborted, err)
	}
	return after.Mallocs - before.Mallocs
}

// TestReduceOutputAllocsPerCommit is the reduce output's allocation gate: a
// record is appended straight into the rank's output batch, which every
// commit copies out and empties, so the reduce phase allocates per commit
// and never per record. Doubling the groups from 2048 to 4096 adds 16
// commits, which may add a few dozen allocations each (the output append,
// the checkpoint frame and its paths, the copier's drain); one allocation per
// record (a serialized line each) would add 2048.
func TestReduceOutputAllocsPerCommit(t *testing.T) {
	small, large := reduceMallocs(t, 2048), reduceMallocs(t, 4096)
	extra := int64(large) - int64(small)
	t.Logf("reduce phase: %d allocations over 2048 groups, %d over 4096: %d more for 2048 more groups", small, large, extra)
	if extra > 2048/2 {
		t.Errorf("2048 more groups cost %d more allocations: the reduce output allocates per record", extra)
	}
}
