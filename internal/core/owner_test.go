package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"ftmrmpi/internal/kvbuf"
)

// denseOwners returns an owner table whose plan is owner (id -> world rank),
// nothing reassigned.
func denseOwners(owner ...int32) ownerTable { return ownerTable{plan: newOwnerPlan(owner)} }

// denseOf returns what t says of ids 0..n-1, as one dense table.
func denseOf(t *ownerTable, n int) []int32 {
	out := make([]int32, n)
	for id := range out {
		out[id] = int32(t.of(id))
	}
	return out
}

// hashTable is a task table whose tasks start where the hash puts them over
// world ranks 0..n-1.
func hashTable(tasks []Task, n int) *taskTable {
	homes := make([]int, n)
	for w := range homes {
		homes[w] = w
	}
	return newTaskTable(tasks, firstTaskPlan(len(tasks), homes))
}

// refOwnership is the ownership state as it was kept before the shared plans:
// one dense entry per task and per partition on every rank, every query a
// scan of the whole table. It is the oracle TestOwnershipMatchesDenseTables
// holds the shared plans and per-rank reassignments to.
type refOwnership struct {
	homes []int
	task  []int32 // task -> world rank
	part  []int32 // partition -> world rank
	done  []bool
}

// start is phaseInit: every task starts on its slot's partition owner, none
// done.
func (ref *refOwnership) start() {
	for id := range ref.task {
		ref.task[id] = ref.part[assignTask(id, len(ref.homes))]
		ref.done[id] = false
	}
}

// byOwner answers, for every owner at once, what a scan of table for that
// owner returned: the ids it owns that keep admits, ascending.
func byOwner(table []int32, keep func(id int) bool) map[int][]int {
	out := make(map[int][]int)
	for id, o := range table {
		if keep(id) {
			out[int(o)] = append(out[int(o)], id)
		}
	}
	return out
}

func (ref *refOwnership) adopted(id int) bool {
	return int(ref.task[id]) != ref.homes[assignTask(id, len(ref.homes))]
}

func (ref *refOwnership) bitmap() []byte {
	out := make([]byte, (len(ref.done)+7)/8)
	for id, d := range ref.done {
		if d {
			out[id>>3] |= 1 << (id & 7)
		}
	}
	return out
}

// apply is a recovery round applied to the dense tables, claims folded the
// way rebuild folds them: a later survivor's claim wins, a task nobody claims
// keeps its owner and a partition nobody claims has none.
func (ref *refOwnership) apply(states []survivorState, group []int) {
	task := make([]int32, len(ref.task))
	for id := range task {
		task[id] = -1
	}
	for part := range ref.part {
		ref.part[part] = -1
	}
	for i, s := range states {
		for id := range ref.done {
			ref.done[id] = ref.done[id] || s.doneBitmap[id>>3]&(1<<(id&7)) != 0
		}
		for _, p := range s.parts {
			ref.part[p] = int32(group[i])
		}
		for _, t := range s.tasks {
			task[t] = int32(group[i])
		}
	}
	for id, o := range task {
		if o >= 0 {
			ref.task[id] = o
		}
	}
}

// Property: a rank's view of task and partition owners — the shared first
// plan or a recovery round's, plus the rank's own reassignments — answers
// every query exactly as the dense per-rank tables it replaces did, order
// included, over random sequences of reassignments, done flags, recovery
// rounds (claimed and unclaimed ids, stale claims among them), promotions
// that take over a dead rank's ids, and an init that runs again after a
// failover.
func TestOwnershipMatchesDenseTables(t *testing.T) {
	for _, w := range []int{1, 4, 64} {
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed*131 + int64(w)))
			nParts := 1 + rng.Intn(w) // a prefix of the world, as under replication
			homes := make([]int, nParts)
			for slot := range homes {
				homes[slot] = slot
			}
			tasks := make([]Task, rng.Intn(3*w+8))
			h := &Handle{}
			first, firstParts := firstTaskPlan(len(tasks), homes), h.firstParts(0, homes)
			r := &runner{nParts: nParts, homes: homes, partOwner: ownerTable{plan: firstParts}}
			r.tt = r.startTasks(tasks, first, firstParts)
			ref := &refOwnership{homes: homes, task: make([]int32, len(tasks)), part: make([]int32, nParts), done: make([]bool, len(tasks))}
			for part := range ref.part {
				ref.part[part] = int32(homes[part])
			}
			ref.start()
			agree := func(step int, op string) {
				t.Helper()
				where := func() string { return fmt.Sprintf("W=%d seed %d step %d (%s)", w, seed, step, op) }
				for id := range tasks {
					if got, want := r.tt.ownerOf(id), int(ref.task[id]); got != want {
						t.Fatalf("%s: task %d owner %d, reference %d", where(), id, got, want)
					}
					if got, want := r.adopted(id), ref.adopted(id); got != want {
						t.Fatalf("%s: task %d adopted %v, reference %v", where(), id, got, want)
					}
				}
				for part := range ref.part {
					if got, want := r.partOwner.of(part), int(ref.part[part]); got != want {
						t.Fatalf("%s: partition %d owner %d, reference %d", where(), part, got, want)
					}
				}
				mine := byOwner(ref.task, func(id int) bool { return !ref.done[id] })
				owned := byOwner(ref.task, func(int) bool { return true })
				parts := byOwner(ref.part, func(int) bool { return true })
				// Every world rank, and one past the world; -1 (no owner) is no
				// rank, and nothing asks what it owns.
				for v := 0; v <= w; v++ {
					if got, want := r.tt.mine(v), mine[v]; !slices.Equal(got, want) {
						t.Fatalf("%s: mine(%d) = %v, reference %v", where(), v, got, want)
					}
					if got, want := r.tt.ownedBy(v), owned[v]; !slices.Equal(got, want) {
						t.Fatalf("%s: ownedBy(%d) = %v, reference %v", where(), v, got, want)
					}
					if got, want := r.partsOf(v), parts[v]; !slices.Equal(got, want) {
						t.Fatalf("%s: partsOf(%d) = %v, reference %v", where(), v, got, want)
					}
				}
				if got, want := r.tt.doneBitmap(), ref.bitmap(); !bytes.Equal(got, want) {
					t.Fatalf("%s: done bitmap %08b, reference %08b", where(), got, want)
				}
			}
			agree(0, "first plan")
			for step := 1; step <= 30; step++ {
				var op string
				switch k := rng.Intn(10); {
				case k < 3 && len(tasks) > 0:
					op = "setOwner"
					id, v := rng.Intn(len(tasks)), rng.Intn(w)
					if rng.Intn(3) == 0 {
						v = int(r.tt.owner.plan.owner[id]) // back to the plan's owner
					}
					r.tt.setOwner(id, v)
					ref.task[id] = int32(v)
				case k < 5:
					op = "ownPart"
					part, v := rng.Intn(nParts), rng.Intn(w)
					r.ownPart(part, v)
					ref.part[part] = int32(v)
				case k < 7 && len(tasks) > 0:
					op = "setDone"
					id, d := rng.Intn(len(tasks)), rng.Intn(3) != 0
					r.tt.setDone(id, d)
					ref.done[id] = d
				case k < 9:
					op = "recovery round"
					var group []int
					for v := range w {
						if rng.Intn(4) != 0 {
							group = append(group, v)
						}
					}
					states := make([]survivorState, len(group))
					for i := range states {
						bm := make([]byte, (len(tasks)+7)/8)
						for id := range tasks {
							if rng.Intn(4) == 0 {
								bm[id>>3] |= 1 << (id & 7)
							}
						}
						states[i].doneBitmap = bm
						for n := rng.Intn(nParts + 1); n > 0; n-- {
							states[i].parts = append(states[i].parts, rng.Intn(nParts))
						}
						for n := rng.Intn(len(tasks) + 1); n > 0; n-- {
							states[i].tasks = append(states[i].tasks, rng.Intn(len(tasks)))
						}
					}
					pl := rebuild(states, group, tasks, nParts)
					pl.apply(r.tt, &r.partOwner)
					ref.apply(states, group)
				case k < 10 && rng.Intn(2) == 0:
					// adoptPromotion's reassignment: me takes dead's mirrored
					// and pending tasks and the partitions it holds.
					op = "promotion"
					dead, me := rng.Intn(w), rng.Intn(w)
					mirrored := func(id int) bool { return (id*7+int(seed))%3 == 0 }
					holds := func(part int) bool { return (part+int(seed))%4 != 0 }
					for _, id := range r.tt.ownedBy(dead) {
						switch {
						case mirrored(id):
							r.tt.setOwner(id, me)
							r.tt.setDone(id, true)
						case !r.tt.isDone(id):
							r.tt.setOwner(id, me)
						}
					}
					for _, part := range r.partsOf(dead) {
						if holds(part) {
							r.ownPart(part, me)
						}
					}
					for id, o := range ref.task {
						if int(o) != dead {
							continue
						}
						switch {
						case mirrored(id):
							ref.task[id] = int32(me)
							ref.done[id] = true
						case !ref.done[id]:
							ref.task[id] = int32(me)
						}
					}
					for part, o := range ref.part {
						if int(o) == dead && holds(part) {
							ref.part[part] = int32(me)
						}
					}
				default:
					op = "init again"
					r.tt = r.startTasks(tasks, first, firstParts)
					ref.start()
				}
				agree(step, op)
			}
		}
	}
}

// partitionLog and scatterLog, which size and place by the partitions the log
// touches, lay the log out byte for byte as the counting sort over a dense
// nParts table did — with a log that touches a few of many partitions and one
// that touches every partition, and with some partitions' cursors negative
// (not sent).
func TestPartitionLogMatchesDenseTable(t *testing.T) {
	for _, row := range []struct {
		name          string
		nParts, k, kv int
	}{
		{"k much less than nParts", 4096, 5, 400},
		{"k equal to nParts", 64, 64, 3000},
	} {
		rng := rand.New(rand.NewSource(int64(row.nParts)))
		touched := rng.Perm(row.nParts)[:row.k]
		// Three keys for each touched partition.
		keys := make(map[int][][]byte, row.k)
		for _, part := range touched {
			keys[part] = nil
		}
		for i, short := 0, row.k; short > 0; i++ {
			k := []byte(fmt.Sprintf("w%d", i))
			if ks, ok := keys[kvbuf.PartitionKey(k, row.nParts)]; ok && len(ks) < 3 {
				keys[kvbuf.PartitionKey(k, row.nParts)] = append(ks, k)
				if len(ks) == 2 {
					short--
				}
			}
		}
		var log kvbuf.Log
		for i := 0; i < row.kv; i++ {
			part := touched[i%row.k]
			if i >= row.k {
				part = touched[rng.Intn(row.k)]
			}
			v := make([]byte, rng.Intn(300))
			rng.Read(v)
			log.Add(keys[part][rng.Intn(3)], v)
		}
		skipped := func(part int) bool { return part%3 == 0 }

		// The dense reference: a size and a cursor per partition.
		refSize := make([]int32, row.nParts)
		pieces := log.Since(kvbuf.Mark{}, nil)
		forPairs := func(fn func(part int, pair []byte)) {
			for _, piece := range pieces {
				for off := 0; off < len(piece); {
					k, _, n := kvbuf.NextPair(piece[off:])
					fn(kvbuf.PartitionKey(k, row.nParts), piece[off:off+n])
					off += n
				}
			}
		}
		forPairs(func(part int, pair []byte) { refSize[part] += int32(len(pair)) })
		refCur, off := make([]int32, row.nParts), int32(0)
		for part, size := range refSize {
			refCur[part] = off
			if !skipped(part) {
				off += size
			}
		}
		want := make([]byte, off)
		forPairs(func(part int, pair []byte) {
			if !skipped(part) {
				refCur[part] += int32(copy(want[refCur[part]:], pair))
			}
		})

		scratch := make([]int32, 2*row.nParts)
		_, of, parts, size := partitionLog(&log, row.nParts, scratch)
		var wantParts []int32
		for part, size := range refSize {
			if size > 0 {
				wantParts = append(wantParts, int32(part))
			}
		}
		if !slices.Equal(parts, wantParts) || len(parts) != row.k {
			t.Fatalf("%s: touched partitions %v, want %v", row.name, parts, wantParts)
		}
		for i, part := range parts {
			if size[i] != refSize[part] {
				t.Fatalf("%s: partition %d holds %d bytes, want %d", row.name, part, size[i], refSize[part])
			}
		}
		if slices.ContainsFunc(scratch[:row.nParts], func(v int32) bool { return v != 0 }) {
			t.Fatalf("%s: partitionLog left its scratch dirty", row.name)
		}
		cur, off := make([]int32, len(parts)), int32(0)
		for i, part := range parts {
			cur[i] = off
			if skipped(int(part)) {
				cur[i] = -1
			} else {
				off += size[i]
			}
		}
		got := make([]byte, off)
		scatterLog(pieces, of, cur, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: the scattered log differs from the dense table's", row.name)
		}
	}
}

// recoveryJob runs BenchmarkRecoveryW2048's job at w ranks: a tiny DR-WC
// wordcount (two chunks of four lines per rank), with one rank killed 1 ms
// into its map phase when kill is set, simulator set-up included.
func recoveryJob(tb testing.TB, w int, kill bool) {
	clus := testCluster(w/8, 8)
	genInput(clus, "in/rec", 2*w, 4, 7)
	h := RunSingle(clus, wcSpec("rec", w, ModelDetectResumeWC))
	kills := 0
	if kill {
		kills = 1
		fired := false
		h.OnPhase(func(rank int, ph Phase) {
			if !fired && rank == w/2 && ph == PhaseMap {
				fired = true
				clus.Sim.After(time.Millisecond, func() { h.World.Kill(rank) })
			}
		})
	}
	clus.Sim.Run()
	if res := h.Result(); res.Aborted || len(res.FailedRanks) != kills {
		tb.Fatalf("W=%d: aborted %v, failed ranks %v", w, res.Aborted, res.FailedRanks)
	}
}

// TestJobAllocsPerRankFlatInW is the whole job's allocation gate (make
// alloc-gate): a failure-free rank allocates about the same bytes at W=2048
// and at W=4096 as at W=512. What every rank of a job derives alike (the task
// list and the first task and partition plans) is made once per job, and the
// shuffle sizes by the partitions a rank's log touches, so what is left
// growing with W per rank is the done bitmap (a bit per task) and its gossip.
// One W-entry int32 table per rank adds 6 KiB a rank at W=2048 and 16 KiB at
// W=4096; the three the job used to hold made the ratios 1.76 and 2.7.
func TestJobAllocsPerRankFlatInW(t *testing.T) {
	perRank := make(map[int]float64)
	for _, w := range []int{512, 2048, 4096} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		recoveryJob(t, w, false)
		runtime.ReadMemStats(&after)
		perRank[w] = float64(after.TotalAlloc-before.TotalAlloc) / float64(w)
	}
	for _, row := range []struct {
		w     int
		bound float64
	}{{2048, 1.15}, {4096, 1.3}} {
		ratio := perRank[row.w] / perRank[512]
		t.Logf("a failure-free job allocates %.1f KB per rank at W=512, %.1f KB at W=%d (%.2fx)", perRank[512]/1e3, perRank[row.w]/1e3, row.w, ratio)
		if ratio > row.bound {
			t.Errorf("per-rank bytes grow %.2fx from W=512 to W=%d, bound %.2f: a rank holds state sized by W again", ratio, row.w, row.bound)
		}
	}
}
