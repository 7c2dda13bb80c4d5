package core

import (
	"bytes"
	"encoding/binary"
	"slices"
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

// ownerPlan is an ownership map that ranks share read-only: the owner (a
// world rank, or -1 for none) of each id of one kind — map tasks or
// partitions — and every owner's ids, ascending. A job's first plans are made
// once per job (Handle.firstTasks, Handle.firstParts), a recovery round's
// once per round (rebuild); no rank keeps a copy.
type ownerPlan struct {
	owner []int32 // id -> world rank, -1 when none
	start []int32 // world rank w owns ids[start[w]:start[w+1]]
	ids   []int32 // the owned ids, by owner, each owner's ascending
}

// newOwnerPlan indexes owner (id -> world rank or -1), which it keeps.
func newOwnerPlan(owner []int32) *ownerPlan {
	top := int32(-1)
	for _, o := range owner {
		top = max(top, o)
	}
	p := &ownerPlan{owner: owner, start: make([]int32, top+2)}
	for _, o := range owner {
		if o >= 0 {
			p.start[o+1]++
		}
	}
	for w := 1; w < len(p.start); w++ {
		p.start[w] += p.start[w-1]
	}
	// A counting sort: each start[w] serves as w's cursor, ending at
	// start[w+1], and then moves up one place.
	p.ids = make([]int32, p.start[len(p.start)-1])
	for id, o := range owner {
		if o >= 0 {
			p.ids[p.start[o]] = int32(id)
			p.start[o]++
		}
	}
	copy(p.start[1:], p.start)
	p.start[0] = 0
	return p
}

// idsOf returns the ids world rank w owns, ascending.
func (p *ownerPlan) idsOf(w int) []int32 {
	if w < 0 || w+1 >= len(p.start) {
		return nil
	}
	return p.ids[p.start[w]:p.start[w+1]]
}

// ownerTable is one rank's view of who owns each id of one kind: the plan it
// shares with the job's other ranks, and the ids this rank has reassigned
// since — by recovery, failover or a re-run init. Every query costs what the
// owner holds plus the reassignments, never a scan of every id.
type ownerTable struct {
	plan *ownerPlan
	over map[int32]int32 // id -> world rank, only where it differs from plan
}

// of returns the world rank id is assigned to, -1 when none.
func (t *ownerTable) of(id int) int {
	if w, ok := t.over[int32(id)]; ok {
		return int(w)
	}
	return int(t.plan.owner[id])
}

// set assigns id to world rank w.
func (t *ownerTable) set(id, w int) {
	if t.plan.owner[id] == int32(w) {
		delete(t.over, int32(id))
		return
	}
	if t.over == nil {
		t.over = make(map[int32]int32)
	}
	t.over[int32(id)] = int32(w)
}

// pristine reports whether the table is plan, with nothing reassigned.
func (t *ownerTable) pristine(plan *ownerPlan) bool { return t.plan == plan && len(t.over) == 0 }

// adopt makes plan the table's base and drops every reassignment, except that
// each id of keep stays with its present owner.
func (t *ownerTable) adopt(plan *ownerPlan, keep []int) {
	var over map[int32]int32
	for _, id := range keep {
		if w := int32(t.of(id)); w != plan.owner[id] {
			if over == nil {
				over = make(map[int32]int32, len(keep))
			}
			over[int32(id)] = w
		}
	}
	t.plan, t.over = plan, over
}

// idsOf returns the ids world rank w owns, ascending (nil when none).
func (t *ownerTable) idsOf(w int) []int {
	base := t.plan.idsOf(w)
	var moved []int // reassigned to w
	for id, o := range t.over {
		if int(o) == w {
			moved = append(moved, int(id))
		}
	}
	if len(base)+len(moved) == 0 {
		return nil
	}
	slices.Sort(moved)
	out := make([]int, 0, len(base)+len(moved))
	for _, id := range base {
		if _, gone := t.over[id]; gone {
			continue
		}
		for len(moved) > 0 && moved[0] < int(id) {
			out = append(out, moved[0])
			moved = moved[1:]
		}
		out = append(out, int(id))
	}
	return append(out, moved...)
}

// taskTable is the per-master view of job progress (§3.3: "each master
// thread maintains two task status tables: one for local tasks and the
// other for global tasks"). done is the merged global view; owner tracks
// current assignment (world ranks): the plan every rank of the job shares —
// the job's first plan, then the last recovery round's — and what this rank
// has reassigned since.
type taskTable struct {
	tasks []Task
	owner ownerTable
	// done holds one flag per task, packed the way the status gossip carries
	// it: task id is bit id%8 of byte id/8. The bits of the last byte past
	// the task count stay zero.
	done []byte
}

// newTaskTable returns a table of tasks, none done, owned as plan says.
func newTaskTable(tasks []Task, plan *ownerPlan) *taskTable {
	return &taskTable{tasks: tasks, owner: ownerTable{plan: plan}, done: make([]byte, (len(tasks)+7)/8)}
}

// firstTaskPlan is a job's failure-free task placement: the hash puts task
// id in slot assignTask(id, len(homes)), and slot i's tasks start on
// homes[i].
func firstTaskPlan(n int, homes []int) *ownerPlan {
	owner := make([]int32, n)
	for id := range owner {
		owner[id] = int32(homes[assignTask(id, len(homes))])
	}
	return newOwnerPlan(owner)
}

// ownerOf returns the world rank task id is assigned to.
func (t *taskTable) ownerOf(id int) int { return t.owner.of(id) }

// setOwner assigns task id to world rank w.
func (t *taskTable) setOwner(id, w int) { t.owner.set(id, w) }

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

// mine returns the ids of tasks owned by worldRank that are not done,
// ascending.
func (t *taskTable) mine(worldRank int) []int {
	return slices.DeleteFunc(t.owner.idsOf(worldRank), t.isDone)
}

// ownedBy returns every task id currently owned by worldRank (done or not),
// ascending.
func (t *taskTable) ownedBy(worldRank int) []int { return t.owner.idsOf(worldRank) }

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
