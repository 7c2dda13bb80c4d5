package sched

import (
	"testing"
	"testing/quick"
	"time"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

func TestImmediatePlacementWhenFree(t *testing.T) {
	s := New(100)
	j, err := s.Submit("a", 50, sec(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.Start != 0 || j.End != sec(10) || j.Wait() != 0 {
		t.Fatalf("job = %+v", j)
	}
}

func TestGangAllOrNothing(t *testing.T) {
	s := New(100)
	_, _ = s.Submit("a", 80, sec(10), 0)
	// 30 slots needed but only 20 free: waits for a's end even though some
	// slots are idle (all-or-nothing).
	j, _ := s.Submit("b", 30, sec(5), sec(1))
	if j.Start != sec(10) {
		t.Fatalf("b starts at %v, want 10s", j.Start)
	}
}

func TestStrictFIFONoBackfill(t *testing.T) {
	s := New(100)
	_, _ = s.Submit("a", 100, sec(10), 0)
	big, _ := s.Submit("big", 100, sec(10), sec(1))
	// small would fit alongside nothing... it must still wait behind big.
	small, _ := s.Submit("small", 1, sec(1), sec(2))
	if big.Start != sec(10) {
		t.Fatalf("big starts at %v", big.Start)
	}
	if small.Start < big.Start {
		t.Fatalf("small (%v) jumped the queue ahead of big (%v)", small.Start, big.Start)
	}
}

func TestQueueWaitAccumulates(t *testing.T) {
	s := New(10)
	_, _ = s.Submit("a", 10, sec(100), 0)
	j, _ := s.Submit("b", 10, sec(10), sec(5))
	if j.Wait() != sec(95) {
		t.Fatalf("wait = %v, want 95s", j.Wait())
	}
}

func TestRejectsOversizeAndDuplicates(t *testing.T) {
	s := New(10)
	if _, err := s.Submit("a", 11, sec(1), 0); err == nil {
		t.Fatal("oversize job accepted")
	}
	_, _ = s.Submit("a", 1, sec(1), 0)
	if _, err := s.Submit("a", 1, sec(1), 0); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestBusyClusterHasQueueDelay(t *testing.T) {
	s := BusyCluster(2048, 64, sec(1800), 7)
	j, err := s.Submit("mine", 256, sec(600), s.Now())
	if err != nil {
		t.Fatal(err)
	}
	if j.Wait() <= 0 {
		t.Fatalf("busy cluster gave zero queue wait")
	}
}

// Property: placements never oversubscribe the pool and respect FIFO start
// order.
func TestPropNoOversubscriptionFIFO(t *testing.T) {
	f := func(sizes []uint8, durs []uint8) bool {
		s := New(64)
		n := len(sizes)
		if len(durs) < n {
			n = len(durs)
		}
		if n > 40 {
			n = 40
		}
		var jobs []*Job
		var at time.Duration
		for i := 0; i < n; i++ {
			size := int(sizes[i]%64) + 1
			dur := sec(int(durs[i]%50) + 1)
			j, err := s.Submit(jobID(i), size, dur, at)
			if err != nil {
				return false
			}
			jobs = append(jobs, j)
			at += sec(int(durs[i] % 3))
		}
		// FIFO: start times are non-decreasing in submission order.
		for i := 1; i < len(jobs); i++ {
			if jobs[i].Start < jobs[i-1].Start {
				return false
			}
		}
		// No oversubscription at any job boundary.
		for _, j := range jobs {
			if s.freeAt(j.Start) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func jobID(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i/26))
}

func TestEarliestStartAfterMultipleEnds(t *testing.T) {
	s := New(100)
	_, _ = s.Submit("a", 60, sec(10), 0)
	_, _ = s.Submit("b", 60, sec(10), 0) // waits for a
	j, _ := s.Submit("c", 100, sec(1), 0)
	// c needs all 100 slots: must wait until both a (t=10) and b (t=20) end.
	if j.Start != sec(20) {
		t.Fatalf("c starts at %v, want 20s", j.Start)
	}
}

func TestUsedReflectsRunning(t *testing.T) {
	s := New(100)
	_, _ = s.Submit("a", 40, sec(100), 0)
	_, _ = s.Submit("b", 30, sec(100), sec(1))
	if got := 100 - s.freeAt(s.Now()); got != 70 {
		t.Fatalf("used = %d, want 70", got)
	}
}
