package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// The recovery rebuild, decision and rewind rule are functions of the
// survivors' claims: this table drives them from hand-built survivorStates,
// with no cluster, simulator or communicator.

// planTable is an 8-task, 4-partition job whose task t and partition p start
// on world rank t%4 and p.
func planTable() *taskTable {
	tt := newTaskTable(make([]Task, 8), 4)
	for id := range tt.owner {
		tt.owner[id] = id % 4
	}
	return tt
}

// claim builds world rank w's survivor state: it holds its own partition and
// tasks plus the extra ones, is in phase, and knows done to be complete.
func claim(w, phase int, done []int, extraParts, extraTasks []uint32) survivorState {
	known := planTable()
	for _, id := range done {
		known.setDone(id, true)
	}
	return survivorState{
		phase:      phase,
		doneBitmap: known.doneBitmap(),
		parts:      append([]uint32{uint32(w)}, extraParts...),
		tasks:      append([]uint32{uint32(w), uint32(w + 4)}, extraTasks...),
	}
}

func TestRecoveryPlan(t *testing.T) {
	survivors := []int{0, 1, 2} // world rank 3 is dead
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	claims := func(phase int, done []int) []survivorState {
		return []survivorState{claim(0, phase, done, nil, nil), claim(1, phase, done, nil, nil), claim(2, phase, done, nil, nil)}
	}

	t.Run("map-phase loss with pending tasks", func(t *testing.T) {
		tt := planTable()
		// Task 3 (the victim's) is known done, its output died with it; task 7
		// (also the victim's) never ran.
		pl := rebuild(claims(phMap, []int{0, 1, 3}), survivors, tt, 4, 0)
		if pl.outcome != jobResumed || pl.minPhase != phMap {
			t.Fatalf("outcome %v minPhase %d", pl.outcome, pl.minPhase)
		}
		if !reflect.DeepEqual(pl.lostParts, []int{3}) || !reflect.DeepEqual(pl.lostTasks, []int{3, 7}) || pl.lostPending != 1 {
			t.Fatalf("lost parts %v tasks %v pending %d", pl.lostParts, pl.lostTasks, pl.lostPending)
		}
		if !reflect.DeepEqual(pl.partOwner, []int{0, 1, 2, -1}) {
			t.Fatalf("partOwner %v", pl.partOwner)
		}
		for _, wc := range []bool{true, false} {
			if d := pl.decide(wc, false); d != remap || d.resumeAt(pl.minPhase) != phMap {
				t.Fatalf("checkpointed=%v: decision %v resuming at %d, want remap at the map phase", wc, d, d.resumeAt(pl.minPhase))
			}
		}
		if !tt.isDone(3) {
			t.Fatal("the rebuild alone forgot a lost task's done bit: only a remap may")
		}
		if ids := pl.rerun(tt); !reflect.DeepEqual(ids, []int{3, 7}) || tt.isDone(3) || !tt.isDone(0) || !tt.isDone(1) {
			t.Fatalf("rerun handed out %v, done bits %08b", ids, tt.done)
		}
	})

	t.Run("post-shuffle loss", func(t *testing.T) {
		for _, phase := range []int{phShuffle, phConvert, phReduce} {
			pl := rebuild(claims(phase, all), survivors, planTable(), 4, 0)
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
		if d := rebuild(states, survivors, planTable(), 4, 0).decide(true, false); d != remap {
			t.Fatalf("a survivor in the map phase: decision %v, want remap", d)
		}
	})

	t.Run("promoted shadow claimed everything", func(t *testing.T) {
		states := claims(phReduce, all)
		states[2] = claim(2, phConvert, all, []uint32{3}, []uint32{3, 7})
		tt := planTable()
		pl := rebuild(states, survivors, tt, 4, 0)
		if len(pl.lostParts)+len(pl.lostTasks) != 0 || pl.partOwner[3] != 2 || tt.owner[3] != 2 || tt.owner[7] != 2 {
			t.Fatalf("lost parts %v tasks %v, partOwner %v, task owners %v", pl.lostParts, pl.lostTasks, pl.partOwner, tt.owner)
		}
		if d := pl.decide(true, true); d != failover || d.resumeAt(pl.minPhase) != phConvert {
			t.Fatalf("decision %v resuming at %d, want failover at the survivors' minimum", d, d.resumeAt(pl.minPhase))
		}
	})

	t.Run("mixed job indexes", func(t *testing.T) {
		states := claims(phInit, nil)
		states[0].jobIdx, states[1].jobIdx, states[2].jobIdx = 4, 5, 5
		for jobIdx, want := range map[int]recoveryOutcome{4: jobSuperseded, 5: jobRestart} {
			tt := planTable()
			tt.setDone(2, true)
			pl := rebuild(states, survivors, tt, 4, jobIdx)
			if pl.outcome != want {
				t.Fatalf("job %d among %v: outcome %v, want %v", jobIdx, []int{4, 5, 5}, pl.outcome, want)
			}
			if ref := planTable(); !reflect.DeepEqual(tt.owner, ref.owner) || !tt.isDone(2) || tt.isDone(0) {
				t.Fatalf("job %d: a misaligned rebuild touched the task table", jobIdx)
			}
		}
	})

	t.Run("a survivor that missed a round", func(t *testing.T) {
		// Rank 3 died a round ago: its work went to ranks 0 and 1, who claim it.
		// Rank 2 missed that round — its table still names the dead owner. Now
		// rank 1 dies too.
		left := []int{0, 2}
		states := []survivorState{
			claim(0, phMap, []int{0, 4}, []uint32{3}, []uint32{3}),
			claim(2, phMap, []int{2}, nil, nil),
		}
		current, stale := planTable(), planTable()
		current.owner[3], current.owner[7] = 0, 1
		a, b := rebuild(states, left, current, 4, 0), rebuild(states, left, stale, 4, 0)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("plans differ:\n%+v\n%+v", a, b)
		}
		if !reflect.DeepEqual(a.lostTasks, []int{1, 5, 7}) || !reflect.DeepEqual(a.partOwner, []int{0, -1, 2, 0}) {
			t.Fatalf("lost tasks %v, partOwner %v", a.lostTasks, a.partOwner)
		}
		if !bytes.Equal(current.done, stale.done) {
			t.Fatalf("done bitmaps differ: %08b, %08b", current.done, stale.done)
		}
		for id := range current.owner {
			if lost := id == 1 || id == 5 || id == 7; !lost && current.owner[id] != stale.owner[id] {
				t.Fatalf("task %d: owner %d on the current table, %d on the stale one", id, current.owner[id], stale.owner[id])
			}
		}
	})

	t.Run("a claim past the table", func(t *testing.T) {
		states := claims(phMap, nil)
		states[0].tasks = append(states[0].tasks, 8, 1<<31)
		states[0].parts = append(states[0].parts, 4, 1<<31)
		tt := planTable()
		pl := rebuild(states, survivors, tt, 4, 0)
		if !reflect.DeepEqual(pl.partOwner, []int{0, 1, 2, -1}) || !reflect.DeepEqual(tt.owner, planTable().owner) {
			t.Fatalf("partOwner %v, task owners %v", pl.partOwner, tt.owner)
		}
	})
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
