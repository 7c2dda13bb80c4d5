package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// The recovery rebuild, decision and rewind rule are functions of the
// survivors' claims: this table drives them from hand-built survivorStates,
// with no cluster, simulator or communicator — and with no task table: a
// survivor only applies the plan to its own.

// planTasks is the task list of an 8-task, 4-partition job.
var planTasks = make([]Task, 8)

// planTable is a survivor's table of that job, where task t starts on world
// rank t%4 (partition p starts on world rank p).
func planTable() *taskTable {
	owner := make([]int32, len(planTasks))
	for id := range owner {
		owner[id] = int32(id % 4)
	}
	return newTaskTable(planTasks, newOwnerPlan(owner))
}

// claim builds world rank w's survivor state: it holds its own partition and
// tasks plus the extra ones, is in phase, and knows done to be complete.
func claim(w, phase int, done []int, extraParts, extraTasks []int) survivorState {
	known := planTable()
	for _, id := range done {
		known.setDone(id, true)
	}
	return survivorState{
		phase:      phase,
		doneBitmap: known.doneBitmap(),
		parts:      append([]int{w}, extraParts...),
		tasks:      append([]int{w, w + 4}, extraTasks...),
	}
}

func TestRecoveryPlan(t *testing.T) {
	survivors := []int{0, 1, 2} // world rank 3 is dead
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	claims := func(phase int, done []int) []survivorState {
		return []survivorState{claim(0, phase, done, nil, nil), claim(1, phase, done, nil, nil), claim(2, phase, done, nil, nil)}
	}

	t.Run("map-phase loss with pending tasks", func(t *testing.T) {
		// Task 3 (the victim's) is known done, its output died with it; task 7
		// (also the victim's) never ran.
		pl := rebuild(claims(phMap, []int{0, 1, 3}), survivors, planTasks, 4)
		if pl.done || pl.minPhase != phMap {
			t.Fatalf("done %v minPhase %d", pl.done, pl.minPhase)
		}
		if !reflect.DeepEqual(pl.lostParts, []int{3}) || !reflect.DeepEqual(pl.lostTasks, []int{3, 7}) || pl.lostPending != 1 {
			t.Fatalf("lost parts %v tasks %v pending %d", pl.lostParts, pl.lostTasks, pl.lostPending)
		}
		if !reflect.DeepEqual(pl.partOwner.owner, []int32{0, 1, 2, -1}) || !reflect.DeepEqual(pl.taskOwner.owner, []int32{0, 1, 2, -1, 0, 1, 2, -1}) {
			t.Fatalf("partOwner %v, taskOwner %v", pl.partOwner.owner, pl.taskOwner.owner)
		}
		for _, wc := range []bool{true, false} {
			if d := pl.decide(wc, false); d != remap || d.resumeAt(pl.minPhase) != phMap {
				t.Fatalf("checkpointed=%v: decision %v resuming at %d, want remap at the map phase", wc, d, d.resumeAt(pl.minPhase))
			}
		}
		tt, partOwner := planTable(), denseOwners(0, 1, 2, 3)
		pl.apply(tt, &partOwner)
		if got := denseOf(&partOwner, 4); !tt.isDone(3) || !reflect.DeepEqual(got, pl.partOwner.owner) {
			t.Fatalf("applied: done bits %08b, partOwner %v: only a remap may forget a lost task's done bit", tt.done, got)
		}
		if ids := pl.rerun(tt); !reflect.DeepEqual(ids, []int{3, 7}) || tt.isDone(3) || !tt.isDone(0) || !tt.isDone(1) {
			t.Fatalf("rerun handed out %v, done bits %08b", ids, tt.done)
		}
	})

	t.Run("post-shuffle loss", func(t *testing.T) {
		for _, phase := range []int{phShuffle, phConvert, phReduce} {
			pl := rebuild(claims(phase, all), survivors, planTasks, 4)
			if pl.lostPending != 0 || !reflect.DeepEqual(pl.lostTasks, []int{3, 7}) || !reflect.DeepEqual(pl.lostParts, []int{3}) {
				t.Fatalf("phase %d: lost parts %v tasks %v pending %d", phase, pl.lostParts, pl.lostTasks, pl.lostPending)
			}
			// WC adopts and rewinds at most to the convert phase; NWC has no
			// snapshot to adopt from and remaps.
			if d := pl.decide(true, false); d != adopt || d.resumeAt(pl.minPhase) != min(phase, phConvert) {
				t.Fatalf("phase %d, WC: decision %v resuming at %d", phase, d, d.resumeAt(pl.minPhase))
			}
			if d := pl.decide(false, false); d != remap || d.resumeAt(pl.minPhase) != phMap {
				t.Fatalf("phase %d, NWC: decision %v resuming at %d", phase, d, d.resumeAt(pl.minPhase))
			}
		}
		// One survivor still in the map phase: the loss is not post-shuffle.
		states := claims(phReduce, all)
		states[1].phase = phMap
		if d := rebuild(states, survivors, planTasks, 4).decide(true, false); d != remap {
			t.Fatalf("a survivor in the map phase: decision %v, want remap", d)
		}
	})

	t.Run("promoted shadow claimed everything", func(t *testing.T) {
		states := claims(phReduce, all)
		states[2] = claim(2, phConvert, all, []int{3}, []int{3, 7})
		pl := rebuild(states, survivors, planTasks, 4)
		if len(pl.lostParts)+len(pl.lostTasks) != 0 || pl.partOwner.owner[3] != 2 || pl.taskOwner.owner[3] != 2 || pl.taskOwner.owner[7] != 2 {
			t.Fatalf("lost parts %v tasks %v, partOwner %v, task owners %v", pl.lostParts, pl.lostTasks, pl.partOwner.owner, pl.taskOwner.owner)
		}
		if d := pl.decide(true, true); d != failover || d.resumeAt(pl.minPhase) != phConvert {
			t.Fatalf("decision %v resuming at %d, want failover at the survivors' minimum", d, d.resumeAt(pl.minPhase))
		}
	})

	t.Run("a survivor past the final barrier", func(t *testing.T) {
		// Rank 3 died after the final reduce barrier released rank 1; ranks 0
		// and 2 saw it from inside the barrier. The job's work is all done.
		states := claims(phReduce, all)
		states[1].phase = phDone
		pl := rebuild(states, survivors, planTasks, 4)
		if !pl.done || pl.partOwner != nil || pl.lostTasks != nil {
			t.Fatalf("plan %+v, want a done job with nothing lost", pl)
		}
		if pl.doneBits != nil || pl.taskOwner != nil {
			t.Fatalf("a done job's rebuild carries done bits %08b and task owners %v to apply: it must touch nothing", pl.doneBits, pl.taskOwner)
		}
	})

	t.Run("a survivor that missed a round", func(t *testing.T) {
		// Rank 3 died a round ago: its work went to ranks 0 and 1, who claim it.
		// Rank 2 missed that round — its table still names the dead owner. Now
		// rank 1 dies too. The plan reads no table, and applying it to either
		// leaves them agreeing on everything but the lost tasks' owners.
		left := []int{0, 2}
		states := []survivorState{
			claim(0, phMap, []int{0, 4}, []int{3}, []int{3}),
			claim(2, phMap, []int{2}, nil, nil),
		}
		pl := rebuild(states, left, planTasks, 4)
		if !reflect.DeepEqual(pl.lostTasks, []int{1, 5, 7}) || !reflect.DeepEqual(pl.partOwner.owner, []int32{0, -1, 2, 0}) {
			t.Fatalf("lost tasks %v, partOwner %v", pl.lostTasks, pl.partOwner.owner)
		}
		current, stale := planTable(), planTable()
		current.setOwner(3, 0)
		current.setOwner(7, 1)
		current.setDone(4, true) // rank 0's own table knows what it claims
		currentParts, staleParts := denseOwners(0, 1, 2, 3), denseOwners(0, 1, 2, 3)
		pl.apply(current, &currentParts)
		pl.apply(stale, &staleParts)
		if !bytes.Equal(current.done, stale.done) {
			t.Fatalf("done bitmaps differ: %08b, %08b", current.done, stale.done)
		}
		for id := range planTasks {
			if lost := id == 1 || id == 5 || id == 7; !lost && current.ownerOf(id) != stale.ownerOf(id) {
				t.Fatalf("task %d: owner %d on the current table, %d on the stale one", id, current.ownerOf(id), stale.ownerOf(id))
			}
		}
	})
}

// A survivor state is priced at the bytes its wire form takes: a 45-byte
// header and claim-list prefixes, the done bitmap, 4 bytes per claim, and 8
// more for the trace model's Debt. Each want is the length the byte-level
// encoder once gave the same state.
func TestSurvivorStateSize(t *testing.T) {
	for _, c := range []struct {
		name string
		s    survivorState
		want int
	}{
		{"empty", survivorState{}, 45},
		{"empty, trace model", survivorState{trace: true}, 53},
		{"bitmap only", survivorState{doneBitmap: make([]byte, 3)}, 48},
		{"claims", survivorState{doneBitmap: make([]byte, 1), parts: []int{0, 7}, tasks: []int{1, 2, 3}}, 66},
		{"claims, trace model", survivorState{doneBitmap: make([]byte, 1), parts: []int{0, 7}, tasks: []int{1, 2, 3}, trace: true}, 74},
		{"a 4-rank job's rank", claim(2, phReduce, []int{0, 1, 2}, []int{3}, []int{3, 7}), 70},
	} {
		if got := c.s.size(); got != c.want {
			t.Errorf("%s: priced at %d bytes, want %d", c.name, got, c.want)
		}
	}
}

// mapKillRound is the input of one recovery round after a map-phase kill:
// world rank w of a (w+1)-rank DR-WC job with 2(w+1) tasks is dead, and
// survivor s holds partition s and tasks s and s+w+1, of which the first is
// done. It returns the survivors' states, their world ranks and each
// survivor's own task table and partition owners.
func mapKillRound(w int) (all []any, group []int, tables []*taskTable, owners []*ownerTable, rp roundPlanner) {
	rp = roundPlanner{tasks: make([]Task, 2*(w+1)), nParts: w + 1, checkpointed: true, balanced: true}
	for id := range rp.tasks {
		rp.tasks[id].Chunk.Size = 100 + id%7
	}
	homes := make([]int, w+1)
	for s := range homes {
		homes[s] = s
	}
	first, firstParts := firstTaskPlan(len(rp.tasks), homes), (&Handle{}).firstParts(0, homes)
	for s := range w {
		tt := newTaskTable(rp.tasks, first)
		tt.setDone(s, true)
		all = append(all, survivorState{
			phase:      phMap,
			doneBitmap: tt.done,
			model:      lbModel{Rank: s, Slope: 1e-8 * float64(1+s%5), Backlog: 100},
			parts:      []int{s},
			tasks:      []int{s, s + w + 1},
		})
		group = append(group, s)
		tables = append(tables, tt)
		owners = append(owners, &ownerTable{plan: firstParts})
	}
	return all, group, tables, owners, rp
}

// TestRecoveryPlanAllocsAreLinear is the recovery plan's allocation gate
// (make alloc-gate): one round — the fold over W survivors' claims, then every
// survivor applying the plan to its own table — allocates in proportion to
// W, because the plan is computed once and shared. A rebuild on every
// survivor made it W².
func TestRecoveryPlanAllocsAreLinear(t *testing.T) {
	var bytesAt [2]uint64
	for i, w := range []int{512, 1024} {
		all, group, tables, owners, rp := mapKillRound(w)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pl, err := rp.plan(all, group)
		if err != nil {
			t.Fatal(err)
		}
		for s := range tables {
			pl.apply(tables[s], owners[s])
		}
		runtime.ReadMemStats(&after)
		bytesAt[i] = after.TotalAlloc - before.TotalAlloc
		if pl.decision != remap || !reflect.DeepEqual(pl.lostParts, []int{w}) || len(pl.lostTasks) != 2 || len(pl.tasksTo) != w {
			t.Fatalf("W=%d: decision %v, lost parts %v, lost tasks %v dealt to %d survivors", w, pl.decision, pl.lostParts, pl.lostTasks, len(pl.tasksTo))
		}
	}
	ratio := float64(bytesAt[1]) / float64(bytesAt[0])
	t.Logf("one round's plan allocated %d bytes at W=512, %d at W=1024 (%.2fx)", bytesAt[0], bytesAt[1], ratio)
	if ratio >= 2.5 {
		t.Fatalf("doubling the survivors multiplied a recovery plan's allocated bytes by %.2f, bound 2.5: it is computed per survivor again", ratio)
	}
}

// BenchmarkRecoveryW2048 is the recovery layer benchmark: a tiny DR-WC
// wordcount at W=2048 (two chunks of four lines per rank), failure-free and
// with one rank killed 1 ms into its map phase, simulator set-up included.
// The difference between the two rows is the host cost of one recovery.
//
//	go test ./internal/core -run '^$' -bench RecoveryW2048 -benchtime 3x -benchmem
func BenchmarkRecoveryW2048(b *testing.B) {
	for _, kill := range []bool{false, true} {
		name := "failure-free"
		if kill {
			name = "map-kill"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				recoveryJob(b, 2048, kill)
			}
		})
	}
}

// A masking job that loses every rank before one returns from RunJob is an
// aborted one, as of the last death — exactly what checkpoint/restart
// reports. (It used to report Aborted=false and End==Start: only the abort
// arm of RunJob registered the kill hook.)
func TestDetectResumeJobLosingEveryRankIsAborted(t *testing.T) {
	for _, model := range []Model{ModelDetectResumeWC, ModelDetectResumeNWC, ModelCheckpointRestart} {
		for _, w := range []int{1, 4} {
			if w > 1 && !model.DetectResume() {
				continue // the first detection aborts such a job: it ends before the last kill
			}
			clus := testCluster(2, 2)
			name := "total-loss"
			genInput(clus, "in/"+name, 16, 60, 3)
			h := RunSingle(clus, wcSpec(name, w, model))
			// One kill per rank, a millisecond apart, all inside the map phase.
			last := time.Duration(4+w) * time.Millisecond
			for r := 0; r < w; r++ {
				r := r
				clus.Sim.After(last-time.Duration(r)*time.Millisecond, func() { h.World.Kill(r) })
			}
			clus.Sim.Run()
			res := h.Result()
			if !res.Aborted || res.End != last || len(res.OutputPaths) != 0 {
				t.Errorf("%v, %d ranks all killed by %v: Aborted=%v End=%v outputs=%v",
					model, w, last, res.Aborted, res.End, res.OutputPaths)
			}
			if st := clus.Sim.Stranded(); len(st) != 0 {
				t.Errorf("%v, %d ranks: stranded procs %v", model, w, st)
			}
		}
	}
}
