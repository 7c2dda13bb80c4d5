// Package vtime implements a deterministic discrete-event simulator.
//
// Simulated processes are goroutines, but the scheduler runs exactly one of
// them at a time: a process executes until it parks (sleeps, blocks on a
// queue, or waits for a resource) and then hands control to the next pending
// event's process directly. Runs are therefore fully deterministic: event
// order depends only on (virtual time, insertion sequence).
//
// The package provides the primitives every substrate in this repository is
// built on: virtual sleeping, Park/Wake for custom blocking primitives (the
// simulated MPI's mailboxes and rendezvous), a FIFO Queue (the checkpoint
// copier's), processor-sharing Bandwidth resources (used to model shared
// storage bandwidth and per-core CPU time), and process kill semantics (used
// by the failure injector).
//
// Scheduling is continuation-passing ("direct handoff"): there is no
// scheduler goroutine ping-ponging with the processes. Whichever goroutine
// stops running (a process parking or exiting, or Run itself) pops the next
// event and either runs it inline (callbacks, self-wakes) or resumes the
// next process with a single channel send. One event therefore costs one
// goroutine switch instead of two, and consecutive same-instant callback
// events batch into a single loop with no switches at all. Events are
// pooled, and canceled timers are removed from the heap eagerly (Timer.Stop)
// instead of leaking until their fire time. DESIGN.md §"Simulator core"
// documents the invariants this machinery guarantees.
package vtime

import (
	"container/heap"
	"fmt"
	"runtime/debug"
	"sort"
	"time"
)

// killSentinel is the panic value used to unwind a killed process.
type killSentinel struct{}

// event is a scheduled occurrence. Exactly one of proc/fn is set: proc
// events resume a parked process, fn events run a callback on whichever
// goroutine is currently dispatching (callbacks must not block). Events are
// recycled through Sim.pool; gen distinguishes incarnations so a stale
// Timer handle cannot cancel a recycled event.
type event struct {
	at    time.Duration
	seq   uint64
	proc  *Proc
	fn    func()
	gen   uint64
	index int // heap index
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Sim is a discrete-event simulation. The zero value is not usable; create
// one with NewSim.
type Sim struct {
	now     time.Duration
	events  eventHeap
	seq     uint64
	runDone chan struct{}
	procs   []*Proc
	live    int
	crash   any    // panic value from a simulated process
	crashBt []byte // and its stack
	// pool recycles event structs: the hot path (every sleep, wake, and
	// timer) allocates nothing once the pool is warm.
	pool []*event
	// processed counts events that actually fired (process resumes, process
	// starts, and callbacks); dropped duplicates and dead-process events are
	// not counted. The throughput benchmark divides it by wall time.
	processed uint64
	// atEvent, when set, runs once when processed reaches atEventN (AtEvent).
	atEvent  func()
	atEventN uint64
}

// NewSim returns an empty simulation at virtual time zero.
func NewSim() *Sim {
	return &Sim{runDone: make(chan struct{}, 1)}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Seconds returns the current virtual time in seconds.
func (s *Sim) Seconds() float64 { return s.now.Seconds() }

// EventsProcessed returns the number of events that have fired since the
// simulation was created: process starts, process resumes, and scheduler
// callbacks. Duplicate wakes and events bound to dead processes are not
// counted. The throughput benchmarks report it divided by wall-clock time
// as "simulated events per second".
func (s *Sim) EventsProcessed() uint64 { return s.processed }

// AtEvent runs fn once inside the scheduler as soon as EventsProcessed()
// reaches n: after event n has fired and before event n+1 is popped (n = 0:
// before the first). It schedules no event and consumes no sequence number,
// so a hook that never fires — n past the run's last event — leaves every
// event and instant as they were. One hook at a time; a later call replaces
// an unfired one. fn must not block.
func (s *Sim) AtEvent(n uint64, fn func()) { s.atEvent, s.atEventN = fn, n }

// alloc takes an event from the pool (or allocates one).
func (s *Sim) alloc() *event {
	if n := len(s.pool); n > 0 {
		e := s.pool[n-1]
		s.pool = s.pool[:n-1]
		return e
	}
	return &event{}
}

// free recycles an event. Bumping gen invalidates any Timer still holding
// this incarnation.
func (s *Sim) free(e *event) {
	e.gen++
	e.proc = nil
	e.fn = nil
	e.index = -1
	s.pool = append(s.pool, e)
}

func (s *Sim) schedule(at time.Duration, p *Proc, fn func()) *event {
	if at < s.now {
		at = s.now
	}
	s.seq++
	e := s.alloc()
	e.at, e.seq, e.proc, e.fn = at, s.seq, p, fn
	heap.Push(&s.events, e)
	return e
}

// cancel removes a pending (un-fired) event from the heap and recycles it.
func (s *Sim) cancel(e *event) {
	heap.Remove(&s.events, e.index)
	s.free(e)
}

// After schedules fn to run inside the scheduler at now+d. fn must not
// block. It returns a handle that can be canceled.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	e := s.schedule(s.now+d, nil, fn)
	return &Timer{s: s, e: e, gen: e.gen}
}

// WakeAfter schedules proc to resume at now+d, as Sleep would, but on behalf
// of another process or a scheduler callback, and cancelably: a rendezvous
// that computes every participant's completion instant at once arms one
// WakeAfter per participant and Stops the handles of those it has to
// interrupt early. The wake is one proc event, with no callback in between.
func (s *Sim) WakeAfter(p *Proc, d time.Duration) *Timer {
	e := s.schedule(s.now+d, p, nil)
	return &Timer{s: s, e: e, gen: e.gen}
}

// Every runs fn inside the scheduler every d of virtual time for as long as
// the simulation has other work: after each tick it re-arms only while
// another event can still fire, so it never keeps an otherwise finished
// simulation alive. One observer at a time (the introspection plane is the
// only one): two would each take the other's pending tick for work and
// neither would stop. d must be positive; fn must not block.
func (s *Sim) Every(d time.Duration, fn func()) {
	s.After(d, func() {
		fn()
		if s.ActiveEvents() > 0 {
			s.Every(d, fn)
		}
	})
}

// Timer is a cancelable scheduled event: a callback (After) or a process
// wake (WakeAfter).
type Timer struct {
	s   *Sim
	e   *event
	gen uint64
}

// Stop cancels the timer if it has not fired yet, removing its event from
// the scheduler heap immediately (canceled events do not linger until their
// fire time, so long jobs arming and disarming many timers keep a compact
// heap). Stopping an already-fired or already-stopped timer is a no-op.
func (t *Timer) Stop() {
	if t == nil || t.e == nil {
		return
	}
	if t.e.gen != t.gen {
		// The event already fired and was recycled; nothing to cancel.
		t.e = nil
		return
	}
	t.s.cancel(t.e)
	t.e = nil
}

// Proc is a simulated process.
type Proc struct {
	sim    *Sim
	id     int
	name   string
	resume chan struct{}
	parked bool
	dead   bool
	killed bool
	// killable reports whether a pending kill may interrupt the process at
	// its current park point. Non-killable parks (used internally by
	// resources) defer the kill until the next killable park.
	killable bool
	started  bool
	fn       func(*Proc)
	// OnKill, if set, runs inside the scheduler at the moment the process
	// is killed (before it is unwound). Used for failure notification.
	onKill []func()
}

// Spawn creates a new simulated process that will start running at the
// current virtual time (after the caller yields, if the caller is itself a
// process).
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		sim:      s,
		id:       len(s.procs),
		name:     name,
		resume:   make(chan struct{}),
		fn:       fn,
		killable: true,
	}
	s.procs = append(s.procs, p)
	s.live++
	s.schedule(s.now, p, nil)
	return p
}

// ID returns the process's simulation-unique id.
func (p *Proc) ID() int { return p.id }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Dead reports whether the process has exited or been killed.
func (p *Proc) Dead() bool { return p.dead }

// Killed reports whether the process was killed (as opposed to exiting).
func (p *Proc) Killed() bool { return p.killed }

// OnKill registers fn to run (in scheduler context) when the process is
// killed. Multiple handlers run in registration order.
func (p *Proc) OnKill(fn func()) { p.onKill = append(p.onKill, fn) }

// dispatchOutcome says where control went after a dispatch loop.
type dispatchOutcome int

const (
	// outcomeHandoff: control was transferred to another goroutine (a
	// resumed or freshly started process); the caller must stop running.
	outcomeHandoff dispatchOutcome = iota
	// outcomeSelf: the dispatching process's own wake event came up; it
	// continues running with no context switch.
	outcomeSelf
	// outcomeDrained: no runnable events remain (or a crash was recorded);
	// the simulation is over.
	outcomeDrained
)

// dispatch pops and executes events until control transfers. Callback (fn)
// events run inline on the calling goroutine, so consecutive same-instant
// callbacks batch into this loop with zero context switches; a process
// resume costs exactly one channel handoff. self, when non-nil, is the
// parked process driving the dispatch: popping its own wake event returns
// outcomeSelf instead of a channel round-trip.
func (s *Sim) dispatch(self *Proc) dispatchOutcome {
	for {
		if s.crash != nil {
			return outcomeDrained
		}
		if s.atEvent != nil && s.processed >= s.atEventN {
			fn := s.atEvent
			s.atEvent = nil
			fn()
		}
		if len(s.events) == 0 {
			return outcomeDrained
		}
		e := heap.Pop(&s.events).(*event)
		if e.proc != nil && e.proc.dead {
			s.free(e)
			continue
		}
		s.now = e.at
		if e.proc == nil {
			fn := e.fn
			s.free(e)
			s.processed++
			fn()
			continue
		}
		p := e.proc
		s.free(e)
		switch {
		case !p.started:
			s.processed++
			p.start()
			return outcomeHandoff
		case p.parked:
			s.processed++
			if p == self {
				return outcomeSelf
			}
			p.resume <- struct{}{}
			return outcomeHandoff
		default:
			// The proc was woken by an earlier event at the same timestamp
			// and is past its park point; drop the duplicate.
		}
	}
}

// endRun signals Run that the event chain has drained.
func (s *Sim) endRun() {
	s.runDone <- struct{}{}
}

// start launches the process goroutine. Called on first resume. When the
// process exits (normally, killed, or crashed), its goroutine dispatches
// the next event — control never returns to a central scheduler.
func (p *Proc) start() {
	p.started = true
	go func() {
		defer func() {
			r := recover()
			p.dead = true
			p.sim.live--
			if r != nil {
				if _, ok := r.(killSentinel); !ok {
					p.sim.crash = fmt.Sprintf("proc %q (id %d): %v", p.name, p.id, r)
					p.sim.crashBt = debug.Stack()
				}
			}
			if p.sim.dispatch(nil) == outcomeDrained {
				p.sim.endRun()
			}
		}()
		p.fn(p)
	}()
}

// park blocks the process until it is resumed. The parking goroutine drives
// the dispatch loop itself: if its own wake event is next it keeps running
// without any context switch, otherwise it hands control to the next
// process and blocks on its resume channel. If the process has been killed
// and the park point is killable, it unwinds.
func (p *Proc) park() {
	if p.killed && p.killable {
		panic(killSentinel{})
	}
	p.parked = true
	switch p.sim.dispatch(p) {
	case outcomeSelf:
		// Own wake event popped; continue without switching.
	case outcomeHandoff:
		<-p.resume
	case outcomeDrained:
		// Nothing left to run: the simulation is over and this process is
		// stranded (or the sim crashed). Wake Run, then wait — a later Run
		// may still deliver a resume.
		p.sim.endRun()
		<-p.resume
	}
	p.parked = false
	if p.killed && p.killable {
		panic(killSentinel{})
	}
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.sim.schedule(p.sim.now+d, p, nil)
	p.park()
}

// Yield lets other runnable processes scheduled at the same instant run.
func (p *Proc) Yield() { p.Sleep(0) }

// Kill terminates proc. If it is parked, it unwinds at the current virtual
// time; if it is running, it unwinds at its next park point. Killing a dead
// process is a no-op. Kill may be called from scheduler callbacks or from
// another process.
func (s *Sim) Kill(proc *Proc) {
	if proc.dead || proc.killed {
		return
	}
	proc.killed = true
	for _, fn := range proc.onKill {
		fn()
	}
	if proc.parked && proc.killable {
		// Wake it immediately so it can unwind.
		s.schedule(s.now, proc, nil)
	}
}

// Run executes the simulation until no events remain. It returns the final
// virtual time. If a simulated process panicked, Run re-panics with the
// original value and stack.
func (s *Sim) Run() time.Duration {
	if s.dispatch(nil) == outcomeHandoff {
		<-s.runDone
	}
	if s.crash != nil {
		panic(fmt.Sprintf("vtime: simulated process panicked: %v\n%s", s.crash, s.crashBt))
	}
	return s.now
}

// ActiveEvents returns the number of scheduled events that can still fire:
// pending events that are not bound to a dead process (canceled timers are
// removed from the heap at Stop time, so they never appear here).
func (s *Sim) ActiveEvents() int {
	n := 0
	for _, e := range s.events {
		if e.proc != nil && e.proc.dead {
			continue
		}
		n++
	}
	return n
}

// PendingEvents returns the raw scheduler heap size, including events bound
// to dead processes that will be dropped when popped. The timer-compaction
// unit test pins heap growth with it; ActiveEvents is the behavioral count.
func (s *Sim) PendingEvents() int { return len(s.events) }

// Stranded returns the names of processes that are still parked after Run
// finished (i.e. they are waiting for something that will never happen).
// Useful in tests to assert clean shutdown.
func (s *Sim) Stranded() []string {
	var out []string
	for _, p := range s.procs {
		if !p.dead && p.started {
			out = append(out, p.name)
		}
	}
	sort.Strings(out)
	return out
}

// Parked reports whether the process is currently parked (blocked waiting
// for an event or an explicit Wake). Read-only introspection accessor: it is
// meaningful only when read from scheduler context (a callback or another
// process), where exactly zero processes are running.
func (p *Proc) Parked() bool { return p.parked }

// Procs returns every process ever spawned on this simulation, in spawn
// order (index == Proc.ID). The returned slice is a copy; the processes are
// shared. Introspection accessor — callers must not retain it across
// simulation steps they do not control.
func (s *Sim) Procs() []*Proc {
	return append([]*Proc(nil), s.procs...)
}

// TimerInventory returns, for every live process that has a pending
// proc-bound event in the scheduler heap, the earliest virtual time at which
// it will be resumed, keyed by process ID. A parked process absent from the
// map is waiting for an explicit Wake (a mailbox match, a drain completion,
// an outage ending); a parked process present in it is sleeping on a timer.
// Cold-path introspection accessor: it walks the whole heap.
func (s *Sim) TimerInventory() map[int]time.Duration {
	out := make(map[int]time.Duration)
	for _, e := range s.events {
		if e.proc == nil || e.proc.dead {
			continue
		}
		if at, ok := out[e.proc.id]; !ok || e.at < at {
			out[e.proc.id] = e.at
		}
	}
	return out
}

// wake schedules proc to resume at the current virtual time.
func (s *Sim) wake(p *Proc) {
	if p.dead {
		return
	}
	s.schedule(s.now, p, nil)
}

// Wake schedules proc to resume at the current virtual time. It is the
// companion of Proc.Park for building custom blocking primitives (the
// simulated MPI's message matching and rendezvous use it). Waking a process that is not
// parked is harmless — the duplicate resume is dropped.
func (s *Sim) Wake(p *Proc) { s.wake(p) }

// Park blocks the process until another process or scheduler callback wakes
// it with Sim.Wake. Callers must re-check their wait condition after Park
// returns: wakes can be spurious. If the process is killed while parked, it
// unwinds.
func (p *Proc) Park() { p.park() }
