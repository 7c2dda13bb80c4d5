package core

import (
	"bytes"
	"encoding/binary"
	"strconv"

	"ftmrmpi/internal/kvbuf"
)

// Chunk is one fixed-size piece of input, the unit of map-task assignment.
// The input generator stages one PFS file per chunk under the job's input
// prefix; the distributed masters enumerate them deterministically, so no
// coordination is needed to build identical task tables on every rank
// (paper §3.3).
type Chunk struct {
	File  string // PFS path
	Index int    // position in the sorted input listing
	Size  int    // bytes
}

// Task is one map task (one chunk).
type Task struct {
	ID    int   // stable task id; hashed for owner assignment (§3.3)
	Chunk Chunk // the input chunk this task processes
}

// splitmix64 hashes a task id for owner assignment ("a hashing-based task
// assignment algorithm that calculates the rank of the process for each
// task using its task ID", §3.3).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// assignTask returns the initial owner (world rank) of a task among nranks.
func assignTask(taskID, nranks int) int {
	return int(splitmix64(uint64(taskID)) % uint64(nranks))
}

// taskTable is the per-master view of job progress (§3.3: "each master
// thread maintains two task status tables: one for local tasks and the
// other for global tasks"). done is the merged global view; owner tracks
// current assignment (world ranks), which recovery rewrites.
type taskTable struct {
	tasks []Task
	owner []int32
	// done holds one flag per task, packed the way the status gossip carries
	// it: task id is bit id%8 of byte id/8. The bits of the last byte past
	// the task count stay zero.
	done []byte
}

func newTaskTable(tasks []Task, nranks int) *taskTable {
	t := &taskTable{tasks: tasks, owner: make([]int32, len(tasks)), done: make([]byte, (len(tasks)+7)/8)}
	for i := range tasks {
		t.owner[i] = int32(assignTask(i, nranks))
	}
	return t
}

// ownerOf returns the world rank task id is assigned to.
func (t *taskTable) ownerOf(id int) int { return int(t.owner[id]) }

// setOwner assigns task id to world rank w.
func (t *taskTable) setOwner(id, w int) { t.owner[id] = int32(w) }

// isDone reports whether task id is known to have completed.
func (t *taskTable) isDone(id int) bool { return t.done[id>>3]&(1<<(id&7)) != 0 }

// setDone records task id as completed, or (recovery only: its output died
// with its owner) as to be run again.
func (t *taskTable) setDone(id int, done bool) {
	if done {
		t.done[id>>3] |= 1 << (id & 7)
	} else {
		t.done[id>>3] &^= 1 << (id & 7)
	}
}

// mine returns the ids of tasks owned by worldRank that are not done.
func (t *taskTable) mine(worldRank int) []int {
	var out []int
	for id, o := range t.owner {
		if int(o) == worldRank && !t.isDone(id) {
			out = append(out, id)
		}
	}
	return out
}

// ownedBy returns every task id currently owned by worldRank (done or not).
func (t *taskTable) ownedBy(worldRank int) []int {
	var out []int
	for id, o := range t.owner {
		if int(o) == worldRank {
			out = append(out, id)
		}
	}
	return out
}

// doneBitmap serializes the done flags for master status gossip.
func (t *taskTable) doneBitmap() []byte { return bytes.Clone(t.done) }

// mergeBitmap ORs a peer's done bitmap into the table (done flags are
// monotone, so stale gossip is harmless). A bitmap of another length is
// merged over the bytes both have; bits at or past the task count are
// ignored.
func (t *taskTable) mergeBitmap(bm []byte) {
	n := min(len(bm), len(t.done))
	i := 0
	for ; i+8 <= n; i += 8 {
		w := binary.LittleEndian.Uint64(t.done[i:]) | binary.LittleEndian.Uint64(bm[i:])
		binary.LittleEndian.PutUint64(t.done[i:], w)
	}
	for ; i < n; i++ {
		t.done[i] |= bm[i]
	}
	if tail := len(t.tasks) & 7; tail != 0 {
		t.done[len(t.done)-1] &= 1<<tail - 1
	}
}

// listChunks turns the input chunk files (paths, sorted as storage lists
// them) into the task list every master computes identically.
func listChunks(paths []string, sizes func(string) int) []Task {
	tasks := make([]Task, len(paths))
	for i, p := range paths {
		tasks[i] = Task{ID: i, Chunk: Chunk{File: p, Index: i, Size: sizes(p)}}
	}
	return tasks
}

// LineRecordReader is the default FileRecordReader: each newline-terminated
// line is one record with the line as the value and the record's ordinal
// (within the chunk) as the key.
type LineRecordReader struct {
	data []byte
	pos  int
	rec  int
	key  [16]byte
}

// NewLineReader returns a LineRecordReader factory for Spec.NewReader.
func NewLineReader() FileRecordReader { return &LineRecordReader{} }

// Open begins tokenizing one chunk.
func (r *LineRecordReader) Open(chunk Chunk, data []byte) error {
	r.data = data
	r.pos = 0
	r.rec = 0
	return nil
}

// Next returns the next line.
func (r *LineRecordReader) Next() (key, value []byte, ok bool, err error) {
	if r.pos >= len(r.data) {
		return nil, nil, false, nil
	}
	end := bytes.IndexByte(r.data[r.pos:], '\n')
	var line []byte
	if end < 0 {
		line = r.data[r.pos:]
		r.pos = len(r.data)
	} else {
		line = r.data[r.pos : r.pos+end]
		r.pos += end + 1
	}
	k := strconv.AppendInt(r.key[:0], int64(r.rec), 10)
	r.rec++
	return k, line, true, nil
}

// Close releases chunk state.
func (r *LineRecordReader) Close() error {
	r.data = nil
	return nil
}

// kmvIterator implements KMVReader over a converted partition. Every group's
// values are resolved into one window, allocated at the partition's largest
// group and reused for every key.
type kmvIterator struct {
	m      *kvbuf.KMV
	window [][]byte
	pos    int
}

// Next implements KMVReader.
func (it *kmvIterator) Next() (key []byte, values [][]byte, ok bool) {
	if it.pos >= it.m.Len() {
		return nil, nil, false
	}
	key, values = it.m.Group(it.pos, it.window[:0])
	it.pos++
	return key, values, true
}
