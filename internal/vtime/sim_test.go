package vtime

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func sec(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

func TestSleepAdvancesClock(t *testing.T) {
	s := NewSim()
	var end time.Duration
	s.Spawn("a", func(p *Proc) {
		p.Sleep(3 * time.Second)
		p.Sleep(2 * time.Second)
		end = p.Now()
	})
	s.Run()
	if end != 5*time.Second {
		t.Fatalf("end = %v, want 5s", end)
	}
}

func TestParallelProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := NewSim()
		var order []string
		s.Spawn("a", func(p *Proc) {
			p.Sleep(2 * time.Second)
			order = append(order, "a2")
			p.Sleep(2 * time.Second)
			order = append(order, "a4")
		})
		s.Spawn("b", func(p *Proc) {
			p.Sleep(1 * time.Second)
			order = append(order, "b1")
			p.Sleep(2 * time.Second)
			order = append(order, "b3")
		})
		s.Run()
		return order
	}
	want := []string{"b1", "a2", "b3", "a4"}
	for trial := 0; trial < 10; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("order = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order = %v, want %v", trial, got, want)
			}
		}
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn("p", func(p *Proc) {
			p.Sleep(time.Second)
			order = append(order, i)
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

// AtEvent's hook fires once, with exactly n events fired, and is otherwise
// invisible: a hook that only looks leaves every event and instant as they
// were, and one past the end never fires. Two runs whose hook kills at the
// same n are identical.
func TestAtEvent(t *testing.T) {
	type outcome struct {
		fired  []uint64        // EventsProcessed() at each firing
		wakes  []time.Duration // every wake, in order
		events uint64
		end    time.Duration
	}
	run := func(n uint64, hooked, kill bool) outcome {
		s := NewSim()
		var o outcome
		var procs []*Proc
		for i := 1; i <= 3; i++ {
			procs = append(procs, s.Spawn("p", func(p *Proc) {
				for range 4 {
					p.Sleep(time.Duration(i) * time.Millisecond)
					o.wakes = append(o.wakes, p.Now())
				}
			}))
		}
		s.After(5*time.Millisecond, func() { o.wakes = append(o.wakes, s.Now()) })
		if hooked {
			s.AtEvent(n, func() {
				o.fired = append(o.fired, s.EventsProcessed())
				if kill {
					s.Kill(procs[1])
				}
			})
		}
		o.end = s.Run()
		o.events = s.EventsProcessed()
		return o
	}
	plain := run(0, false, false)
	for n := uint64(0); n <= plain.events; n++ {
		o := run(n, true, false)
		if len(o.fired) != 1 || o.fired[0] != n {
			t.Fatalf("hook at %d fired with %v events processed", n, o.fired)
		}
		if o.fired = nil; !reflect.DeepEqual(o, plain) {
			t.Fatalf("a looking hook at %d changed the run: %+v, want %+v", n, o, plain)
		}
		if a, b := run(n, true, true), run(n, true, true); !reflect.DeepEqual(a, b) {
			t.Fatalf("two kills at %d differ: %+v vs %+v", n, a, b)
		}
	}
	if past := run(plain.events+1, true, true); past.fired != nil || !reflect.DeepEqual(past, plain) {
		t.Fatalf("a hook past the last event changed the run: %+v, want %+v", past, plain)
	}
}

func TestQueueBlocksAndDelivers(t *testing.T) {
	s := NewSim()
	q := NewQueue(s)
	var got any
	var at time.Duration
	s.Spawn("recv", func(p *Proc) {
		got = q.Recv(p)
		at = p.Now()
	})
	s.Spawn("send", func(p *Proc) {
		p.Sleep(4 * time.Second)
		q.Send(42)
	})
	s.Run()
	if got != 42 || at != 4*time.Second {
		t.Fatalf("got %v at %v, want 42 at 4s", got, at)
	}
}

func TestQueueFIFOAcrossWaiters(t *testing.T) {
	s := NewSim()
	q := NewQueue(s)
	var got []int
	for i := 0; i < 3; i++ {
		s.Spawn("recv", func(p *Proc) {
			got = append(got, q.Recv(p).(int))
		})
	}
	s.Spawn("send", func(p *Proc) {
		p.Sleep(time.Second)
		q.Send(1)
		q.Send(2)
		q.Send(3)
	})
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestKillUnwindsParkedProc(t *testing.T) {
	s := NewSim()
	reached := false
	var victim *Proc
	victim = s.Spawn("victim", func(p *Proc) {
		p.Sleep(10 * time.Second)
		reached = true
	})
	s.Spawn("killer", func(p *Proc) {
		p.Sleep(2 * time.Second)
		s.Kill(victim)
	})
	end := s.Run()
	if reached {
		t.Fatal("victim ran past kill point")
	}
	if !victim.Dead() || !victim.Killed() {
		t.Fatal("victim not marked dead+killed")
	}
	if end != 2*time.Second {
		t.Fatalf("sim ended at %v, want 2s", end)
	}
}

func TestOnKillHandlerRuns(t *testing.T) {
	s := NewSim()
	fired := false
	var victim *Proc
	victim = s.Spawn("victim", func(p *Proc) {
		p.OnKill(func() { fired = true })
		p.Sleep(time.Hour)
	})
	s.Spawn("killer", func(p *Proc) {
		p.Sleep(time.Second)
		s.Kill(victim)
	})
	s.Run()
	if !fired {
		t.Fatal("OnKill handler did not run")
	}
}

func TestBandwidthSingleUser(t *testing.T) {
	s := NewSim()
	bw := NewBandwidth(s, "disk", 100) // 100 units/s
	var took time.Duration
	s.Spawn("u", func(p *Proc) {
		start := p.Now()
		bw.Acquire(p, 500)
		took = p.Now() - start
	})
	s.Run()
	if took < sec(4.99) || took > sec(5.01) {
		t.Fatalf("took %v, want ~5s", took)
	}
}

func TestBandwidthProcessorSharing(t *testing.T) {
	// Two equal transfers sharing 100 u/s: each effectively gets 50 u/s,
	// both finish at t=10 for 500 units.
	s := NewSim()
	bw := NewBandwidth(s, "disk", 100)
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn("u", func(p *Proc) {
			bw.Acquire(p, 500)
			done[i] = p.Now()
		})
	}
	s.Run()
	for i, d := range done {
		if d < sec(9.99) || d > sec(10.01) {
			t.Fatalf("user %d done at %v, want ~10s", i, d)
		}
	}
}

func TestBandwidthLateJoiner(t *testing.T) {
	// u0 starts 600 units at t=0 alone (rate 100). u1 joins at t=2 with 200
	// units. From t=2 both get 50 u/s. u0 has 400 left at t=2.
	// u1 finishes at t=2+200/50=6. Then u0 alone: at t=6 it has
	// 400-4*50=200 left, finishing at t=8.
	s := NewSim()
	bw := NewBandwidth(s, "disk", 100)
	var d0, d1 time.Duration
	s.Spawn("u0", func(p *Proc) {
		bw.Acquire(p, 600)
		d0 = p.Now()
	})
	s.Spawn("u1", func(p *Proc) {
		p.Sleep(2 * time.Second)
		bw.Acquire(p, 200)
		d1 = p.Now()
	})
	s.Run()
	if d1 < sec(5.99) || d1 > sec(6.01) {
		t.Fatalf("u1 done at %v, want ~6s", d1)
	}
	if d0 < sec(7.99) || d0 > sec(8.01) {
		t.Fatalf("u0 done at %v, want ~8s", d0)
	}
}

func TestBandwidthKilledUserReleasesShare(t *testing.T) {
	// u0 and u1 share; u1 is killed at t=2, after which u0 runs at full rate.
	// u0: 1000 units at 100 u/s. t<2: 50 u/s -> 100 served. Remaining 900 at
	// full rate -> done at t=11.
	s := NewSim()
	bw := NewBandwidth(s, "disk", 100)
	var d0 time.Duration
	var u1 *Proc
	s.Spawn("u0", func(p *Proc) {
		bw.Acquire(p, 1000)
		d0 = p.Now()
	})
	u1 = s.Spawn("u1", func(p *Proc) {
		bw.Acquire(p, 1e9)
	})
	s.Spawn("killer", func(p *Proc) {
		p.Sleep(2 * time.Second)
		s.Kill(u1)
	})
	s.Run()
	if d0 < sec(10.95) || d0 > sec(11.05) {
		t.Fatalf("u0 done at %v, want ~11s", d0)
	}
}

// A completion on a busy resource (the shared PFS at scale) filters the
// active set in place: nothing is allocated however many transfers survive,
// the survivors keep their order, and the vacated tail holds no reference.
func TestBandwidthCompleteAllocatesNothing(t *testing.T) {
	const n = 256
	s := NewSim()
	b := NewBandwidth(s, "pfs", 1)
	live := make([]*xfer, n)
	for i := range live {
		live[i] = &xfer{remaining: 1e9, p: &Proc{}}
	}
	finished := &xfer{p: &Proc{dead: true}} // no wake-up event to account for
	allocs := testing.AllocsPerRun(100, func() {
		b.active = append(b.active[:0], live...)
		b.active[n/2] = finished
		finished.done = false
		if b.pending != nil {
			s.cancel(b.pending) // as the scheduler recycles the event it fires
		}
		b.complete()
	})
	if allocs != 0 {
		t.Errorf("complete() with %d active transfers: %v allocs, want 0", n, allocs)
	}
	if !finished.done || len(b.active) != n-1 || b.active[:n][n-1] != nil {
		t.Fatalf("done=%v active=%d tail=%v, want the finished transfer gone and the tail cleared",
			finished.done, len(b.active), b.active[:n][n-1])
	}
	for i, x := range b.active {
		if want := live[i+i/(n/2)]; x != want {
			t.Fatalf("survivor %d out of order", i)
		}
	}
}

func TestAfterTimerAndStop(t *testing.T) {
	s := NewSim()
	fired := 0
	s.After(time.Second, func() { fired++ })
	tm := s.After(2*time.Second, func() { fired += 100 })
	tm.Stop()
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

// Property: for any set of sleep durations, each process ends at exactly the
// sum of its sleeps, regardless of interleaving.
func TestPropSleepSumsExact(t *testing.T) {
	f := func(durs [][3]uint16) bool {
		if len(durs) > 32 {
			durs = durs[:32]
		}
		s := NewSim()
		ends := make([]time.Duration, len(durs))
		for i, d3 := range durs {
			i, d3 := i, d3
			s.Spawn("p", func(p *Proc) {
				var total time.Duration
				for _, d := range d3 {
					dd := time.Duration(d) * time.Millisecond
					p.Sleep(dd)
					total += dd
				}
				if p.Now() != total {
					t.Errorf("proc %d at %v, want %v", i, p.Now(), total)
				}
				ends[i] = p.Now()
			})
		}
		s.Run()
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: bandwidth conservation — total served units equal the sum of all
// completed transfer sizes, and the makespan is at least total/rate.
func TestPropBandwidthConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 24 {
			sizes = sizes[:24]
		}
		s := NewSim()
		bw := NewBandwidth(s, "r", 1000)
		var total float64
		for _, sz := range sizes {
			amount := float64(sz%5000) + 1
			total += amount
			s.Spawn("u", func(p *Proc) { bw.Acquire(p, amount) })
		}
		end := s.Run()
		lower := total / 1000
		if end.Seconds() < lower-1e-6 {
			t.Errorf("makespan %v < lower bound %.4fs", end, lower)
		}
		if diff := bw.Served() - total; diff < -1 || diff > 1 {
			t.Errorf("served %.2f, want %.2f", bw.Served(), total)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStrandedReportsBlockedProcs(t *testing.T) {
	s := NewSim()
	q := NewQueue(s)
	s.Spawn("stuck", func(p *Proc) { q.Recv(p) })
	s.Run()
	st := s.Stranded()
	if len(st) != 1 || st[0] != "stuck" {
		t.Fatalf("stranded = %v, want [stuck]", st)
	}
}

func TestQueueTryRecvAndLen(t *testing.T) {
	s := NewSim()
	q := NewQueue(s)
	if _, ok := q.TryRecv(); ok {
		t.Fatal("TryRecv on empty queue succeeded")
	}
	q.Send(1)
	q.Send(2)
	if len(q.items) != 2 {
		t.Fatalf("len = %d", len(q.items))
	}
	v, ok := q.TryRecv()
	if !ok || v != 1 {
		t.Fatalf("TryRecv = %v %v", v, ok)
	}
}

func TestProcIdentity(t *testing.T) {
	s := NewSim()
	p1 := s.Spawn("alpha", func(p *Proc) {
		if p.name != "alpha" || p.Sim() != s {
			t.Error("identity accessors wrong")
		}
	})
	p2 := s.Spawn("beta", func(p *Proc) {})
	if p1.ID() == p2.ID() {
		t.Fatal("duplicate proc ids")
	}
	s.Run()
	if !p1.Dead() || p1.Killed() {
		t.Fatal("completed proc state wrong")
	}
}

func TestTimerStopCompactsHeap(t *testing.T) {
	// A long job arming and disarming many timers (e.g. Bandwidth
	// rescheduling on every membership change) must not grow the event
	// heap: Stop removes the canceled event immediately instead of leaving
	// it to fire as a no-op.
	s := NewSim()
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			tm := s.After(time.Hour, func() { t.Error("stopped timer fired") })
			tm.Stop()
			if n := s.PendingEvents(); n > 1 {
				t.Fatalf("heap grew to %d pending events after %d stopped timers", n, i+1)
			}
			p.Sleep(time.Millisecond)
		}
	})
	s.Run()
	if n := s.PendingEvents(); n != 0 {
		t.Fatalf("%d events left after run", n)
	}
}

func TestTimerStopAfterFireIsNoop(t *testing.T) {
	s := NewSim()
	fired := 0
	var tm *Timer
	s.Spawn("p", func(p *Proc) {
		tm = s.After(time.Second, func() { fired++ })
		p.Sleep(2 * time.Second)
		// The timer fired and its event was recycled; Stop must not touch
		// whatever reused the slot.
		other := s.After(time.Second, func() { fired++ })
		tm.Stop()
		tm.Stop() // double-stop is also a no-op
		_ = other
		p.Sleep(2 * time.Second)
	})
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (stale Stop canceled a recycled event)", fired)
	}
}

func TestEventsProcessedCounts(t *testing.T) {
	s := NewSim()
	s.Spawn("a", func(p *Proc) { p.Sleep(time.Second) })
	s.After(time.Second, func() {})
	s.Run()
	if n := s.EventsProcessed(); n < 3 {
		t.Fatalf("EventsProcessed = %d, want >= 3 (spawn resume, sleep wake, callback)", n)
	}
}

// WakeAfter resumes a parked process at the chosen instant with one event;
// a stopped handle never fires, so it cannot cut a later sleep short.
func TestWakeAfterAndStop(t *testing.T) {
	s := NewSim()
	var woke, slept time.Duration
	a := s.Spawn("a", func(p *Proc) {
		p.Park()
		woke = p.Now()
	})
	b := s.Spawn("b", func(p *Proc) {
		p.Park() // woken by the driver at 1s, after its 5s wake-up was stopped
		p.Sleep(10 * time.Second)
		slept = p.Now()
	})
	s.Spawn("driver", func(p *Proc) {
		s.WakeAfter(a, 3*time.Second)
		tm := s.WakeAfter(b, 5*time.Second)
		p.Sleep(time.Second)
		tm.Stop()
		s.Wake(b)
	})
	s.Run()
	if woke != 3*time.Second {
		t.Fatalf("a woke at %v, want 3s", woke)
	}
	if slept != 11*time.Second {
		t.Fatalf("b finished its sleep at %v, want 11s (a stopped wake-up fired)", slept)
	}
	if n := s.EventsProcessed(); n != 7 {
		t.Fatalf("EventsProcessed = %d, want 7 (3 starts, 2 sleeps, one event per wake)", n)
	}
}

// An observer ticker runs while the simulation has other work and stops
// with it.
func TestEveryStopsWithTheWork(t *testing.T) {
	const d = 3 * time.Millisecond
	s := NewSim()
	s.Spawn("work", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	ticks := 0
	s.Every(d, func() {
		if ticks++; ticks > 100 {
			panic("the observer ticker keeps the simulation alive")
		}
	})
	end := s.Run()
	// One tick per period while the 10 ms of work lasts, plus the one that
	// finds nothing left and does not re-arm.
	if want := int(10*time.Millisecond/d) + 1; ticks != want {
		t.Errorf("ticker fired %d times, want %d", ticks, want)
	}
	if end > 10*time.Millisecond+d {
		t.Errorf("run ended at %v, want within one period of the work's end at 10ms", end)
	}
}
