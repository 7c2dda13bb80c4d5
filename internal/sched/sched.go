// Package sched models an HPC cluster's gang scheduler (Maui/PBS-style),
// the environment constraint at the heart of the paper's §2.3: jobs run
// all-or-nothing on exclusively allocated nodes, a FIFO queue orders
// pending jobs, growing a running job is refused (some systems — BlueGene/Q
// — cannot spawn processes at all), and a failed checkpoint/restart job
// must be *resubmitted*, waiting in the queue behind everyone else.
//
// The scheduler is a standalone deterministic event model over virtual
// time; the benchmark harness uses it to price the checkpoint/restart
// model's queue-wait against detect/resume's in-place recovery.
package sched

import (
	"fmt"
	"sort"
	"time"
)

// Job is one allocation request.
type Job struct {
	ID       string
	Slots    int           // gang size (all-or-nothing)
	Duration time.Duration // requested walltime

	Submit time.Duration // when it entered the queue
	Start  time.Duration // assigned by the scheduler
	End    time.Duration // Start + Duration
	placed bool
}

// Wait returns the queue wait the job experienced.
func (j *Job) Wait() time.Duration { return j.Start - j.Submit }

// Scheduler is a FIFO gang scheduler over a fixed slot pool.
type Scheduler struct {
	slots int
	queue []*Job
	now   time.Duration
	jobs  map[string]*Job
	// lastStart enforces strict FIFO: no job may start before one that was
	// submitted ahead of it (no backfill).
	lastStart time.Duration
}

// New creates a scheduler managing the given number of slots.
func New(slots int) *Scheduler {
	if slots <= 0 {
		panic("sched: slots must be positive")
	}
	return &Scheduler{slots: slots, jobs: make(map[string]*Job)}
}

// Now returns the latest submission time the scheduler has seen.
func (s *Scheduler) Now() time.Duration { return s.now }

// Submit enqueues a job at time `at` and schedules everything placeable.
// Submission times must be non-decreasing. It returns the job handle with
// Start/End filled in once placed.
func (s *Scheduler) Submit(id string, slots int, duration, at time.Duration) (*Job, error) {
	if slots <= 0 || slots > s.slots {
		return nil, fmt.Errorf("sched: job %s wants %d slots of %d", id, slots, s.slots)
	}
	if at < s.now {
		return nil, fmt.Errorf("sched: submission at %v before current time %v", at, s.now)
	}
	if _, dup := s.jobs[id]; dup {
		return nil, fmt.Errorf("sched: duplicate job id %q", id)
	}
	s.now = at
	j := &Job{ID: id, Slots: slots, Duration: duration, Submit: at}
	s.jobs[id] = j
	s.queue = append(s.queue, j)
	s.place()
	return j, nil
}

// place runs the FIFO placement loop: simulate forward, starting the head
// of the queue whenever enough slots are free. Strict FIFO: a stuck head
// blocks smaller jobs behind it (no backfill), the conservative policy the
// paper describes.
func (s *Scheduler) place() {
	for len(s.queue) > 0 {
		head := s.queue[0]
		from := maxDur(maxDur(head.Submit, s.now), s.lastStart)
		start := s.earliestStart(head.Slots, from)
		s.lastStart = start
		head.Start = start
		head.End = start + head.Duration
		head.placed = true
		s.queue = s.queue[1:]
	}
}

// earliestStart finds the first time ≥ from at which `slots` are free,
// given the already-placed jobs.
func (s *Scheduler) earliestStart(slots int, from time.Duration) time.Duration {
	// Candidate times: `from` and every placed job's end.
	cands := []time.Duration{from}
	for _, j := range s.jobs {
		if j.placed && j.End > from {
			cands = append(cands, j.End)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, t := range cands {
		if s.freeAt(t) >= slots {
			return t
		}
	}
	// Unreachable: after the last job ends everything is free.
	return cands[len(cands)-1]
}

// freeAt returns the free slots at time t under current placements.
func (s *Scheduler) freeAt(t time.Duration) int {
	used := 0
	for _, j := range s.jobs {
		if j.placed && j.Start <= t && t < j.End {
			used += j.Slots
		}
	}
	return s.slots - used
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// BusyCluster pre-loads a scheduler with a deterministic synthetic
// workload: `n` background jobs with pseudo-random sizes and durations,
// submitted back-to-back from time zero, leaving the queue in the state a
// "busy HPC cluster" (§4.1) would be in. Returns the scheduler.
func BusyCluster(slots, n int, meanDuration time.Duration, seed uint64) *Scheduler {
	s := New(slots)
	x := seed
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var at time.Duration
	for i := 0; i < n; i++ {
		size := 1 + int(next()%uint64(slots/2))
		dur := time.Duration(float64(meanDuration) * (0.25 + float64(next()%200)/100))
		_, _ = s.Submit(fmt.Sprintf("bg-%04d", i), size, dur, at)
		at += time.Duration(next() % uint64(meanDuration/4+1))
	}
	return s
}
