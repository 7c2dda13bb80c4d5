package vtime

// Queue is an unbounded FIFO mailbox between simulated processes. Send
// never blocks; Recv blocks the calling process until an item is available.
// The checkpoint copier's work queue (internal/core) is its one user: the
// simulated MPI layer parks and wakes its own waiters (Proc.Park, Sim.Wake).
type Queue struct {
	s       *Sim
	items   []any
	waiters []*Proc
}

// NewQueue returns an empty queue bound to s.
func NewQueue(s *Sim) *Queue {
	return &Queue{s: s}
}

// Send enqueues v and wakes one waiting process, if any. It may be called
// from a process or from a scheduler callback.
func (q *Queue) Send(v any) {
	q.items = append(q.items, v)
	q.wakeOne()
}

func (q *Queue) wakeOne() {
	for len(q.waiters) > 0 {
		p := q.waiters[0]
		q.waiters = q.waiters[1:]
		if p.dead {
			continue
		}
		q.s.wake(p)
		return
	}
}

// Recv blocks p until an item is available, then dequeues and returns it.
func (q *Queue) Recv(p *Proc) any {
	for len(q.items) == 0 {
		q.waiters = append(q.waiters, p)
		p.park()
	}
	v := q.items[0]
	q.items = q.items[1:]
	q.unwait(p)
	// If items remain and other procs are waiting, wake the next one (a
	// woken proc may have been overtaken at the same timestamp).
	if len(q.items) > 0 {
		q.wakeOne()
	}
	return v
}

// TryRecv dequeues an item without blocking. ok=false if the queue is empty.
func (q *Queue) TryRecv() (any, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// unwait removes p from the waiters list (it may appear if the proc looped).
func (q *Queue) unwait(p *Proc) {
	for i, w := range q.waiters {
		if w == p {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}
