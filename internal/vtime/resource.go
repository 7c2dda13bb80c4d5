package vtime

import (
	"math"
	"time"
)

// Bandwidth is a processor-sharing resource: its capacity (units/second) is
// divided evenly among all active acquisitions. It models shared storage
// bandwidth (a GPFS-like parallel file system whose aggregate bandwidth is
// split across concurrent clients) and per-core CPU time (a main thread and
// a background copier thread sharing one core).
//
// Acquire(p, amount) blocks p for amount/(rate/active) virtual time,
// recomputed whenever the set of active acquisitions changes.
type Bandwidth struct {
	s    *Sim
	name string
	rate float64 // units per second

	active     []*xfer
	lastUpdate time.Duration
	// pending is the scheduled completion event (nil when idle); completeFn
	// caches the b.complete method value so rescheduling — which happens on
	// every membership change — allocates neither a closure nor a Timer.
	pending    *event
	completeFn func()

	// Busy accounts total units served; BusyTime accumulates
	// utilization-weighted time (for utilization metrics).
	served float64
}

type xfer struct {
	remaining float64
	p         *Proc
	done      bool
}

// NewBandwidth creates a processor-sharing resource with the given capacity
// in units per second.
func NewBandwidth(s *Sim, name string, unitsPerSec float64) *Bandwidth {
	if unitsPerSec <= 0 {
		panic("vtime: bandwidth must be positive")
	}
	b := &Bandwidth{s: s, name: name, rate: unitsPerSec, lastUpdate: s.now}
	b.completeFn = b.complete
	return b
}

// Served returns the total units served so far.
func (b *Bandwidth) Served() float64 { return b.served }

// update advances all active transfers to the current virtual time.
func (b *Bandwidth) update() {
	now := b.s.now
	if now <= b.lastUpdate {
		b.lastUpdate = now
		return
	}
	dt := (now - b.lastUpdate).Seconds()
	b.lastUpdate = now
	n := len(b.active)
	if n == 0 {
		return
	}
	share := b.rate / float64(n) * dt
	for _, x := range b.active {
		x.remaining -= share
		b.served += share
	}
}

// reschedule cancels any pending completion event and schedules the next.
// The canceled event is removed from the heap and recycled immediately, so
// the churn of membership changes never grows the scheduler heap.
func (b *Bandwidth) reschedule() {
	if b.pending != nil {
		b.s.cancel(b.pending)
		b.pending = nil
	}
	n := len(b.active)
	if n == 0 {
		return
	}
	minRem := math.Inf(1)
	for _, x := range b.active {
		if x.remaining < minRem {
			minRem = x.remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	dt := minRem * float64(n) / b.rate
	b.pending = b.s.schedule(b.s.now+time.Duration(dt*float64(time.Second))+1, nil, b.completeFn)
}

// complete finishes every transfer whose remaining units have reached zero,
// waking their owners in acquisition order. The survivors are kept by
// filtering b.active in place: a completion allocates nothing.
func (b *Bandwidth) complete() {
	b.pending = nil
	b.update()
	still := b.active[:0]
	for _, x := range b.active {
		if x.remaining <= 1e-9*b.rate || x.p.dead {
			x.done = true
			if !x.p.dead {
				b.s.wake(x.p)
			}
		} else {
			still = append(still, x)
		}
	}
	clear(b.active[len(still):]) // drop the finished transfers' references
	b.active = still
	b.reschedule()
}

// Acquire blocks p until amount units have been served to it, sharing the
// resource's capacity with all concurrent acquisitions. A zero or negative
// amount returns immediately. If the process is killed while waiting, it
// unwinds.
func (b *Bandwidth) Acquire(p *Proc, amount float64) {
	if amount <= 0 || math.IsNaN(amount) {
		return
	}
	b.update()
	x := &p.xfer
	*x = xfer{remaining: amount, p: p}
	b.active = append(b.active, x)
	b.reschedule()
	// If the process is killed while waiting, park() unwinds it; make sure
	// the dangling transfer stops consuming capacity.
	defer func() {
		if !x.done {
			b.drop(x)
		}
	}()
	for !x.done {
		p.park()
	}
}

// drop removes a transfer (e.g. its owner died) and reschedules. Elapsed
// time is accounted before removal so the dead transfer's share up to now is
// preserved.
func (b *Bandwidth) drop(x *xfer) {
	b.update()
	for i, a := range b.active {
		if a == x {
			b.active = append(b.active[:i], b.active[i+1:]...)
			break
		}
	}
	b.reschedule()
}
