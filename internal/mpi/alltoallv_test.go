package mpi

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/trace"
)

// ringAlltoallv is the reference model of Alltoallv's cost: the ring of
// Size-1 blocking pairwise steps (send to rank+s, then receive from rank-s)
// that production code used to simulate message by message. Alltoallv must
// complete every rank at exactly the instant this does.
func ringAlltoallv(c *Comm, tag int, bufs [][]byte) ([][]byte, error) {
	n := c.Size()
	out := make([][]byte, n)
	out[c.Rank()] = bufs[c.Rank()]
	for step := 1; step < n; step++ {
		dst := (c.Rank() + step) % n
		src := (c.Rank() - step + n) % n
		if err := c.Send(dst, tag, bufs[dst]); err != nil {
			return nil, err
		}
		m, err := c.Recv(src, tag)
		if err != nil {
			return nil, err
		}
		out[src] = m.Data
	}
	return out, nil
}

// exchangeRun is what one rank observed over a sequence of exchanges.
type exchangeRun struct {
	done []time.Duration // completion instant of each exchange
	got  [][][]byte      // received buffers of each exchange
}

// runExchanges launches n ranks that sleep skew[r], then run one exchange
// per round back to back (so later rounds start from the skew the earlier
// ones left behind), through Alltoallv or the reference ring.
func runExchanges(t *testing.T, n int, skew []time.Duration, rounds [][][][]byte, ring bool) ([]exchangeRun, uint64) {
	t.Helper()
	clus := testCluster((n+7)/8, 8)
	runs := make([]exchangeRun, n)
	Launch(clus, n, func(c *Comm) {
		r := c.Rank()
		c.Proc().Sleep(skew[r])
		for i, bufs := range rounds {
			var out [][]byte
			var err error
			if ring {
				out, err = ringAlltoallv(c, i, bufs[r])
			} else {
				out, err = c.Alltoallv(bufs[r])
			}
			if err != nil {
				t.Errorf("rank %d round %d: %v", r, i, err)
				return
			}
			runs[r].done = append(runs[r].done, c.Proc().Now())
			runs[r].got = append(runs[r].got, out)
		}
	})
	clus.Sim.Run()
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded procs: %v", st)
	}
	return runs, clus.Sim.EventsProcessed()
}

// randomExchange draws one exchange's buffers: a mix of empty, small and
// large payloads, with some ranks sending nothing at all.
func randomExchange(rng *rand.Rand, n int) [][][]byte {
	bufs := make([][][]byte, n)
	for s := range bufs {
		bufs[s] = make([][]byte, n)
		silent := rng.Intn(5) == 0
		for d := range bufs[s] {
			var size int
			switch k := rng.Intn(4); {
			case silent || k == 0:
				size = 0
			case k == 1:
				size = rng.Intn(64)
			case k == 2:
				size = rng.Intn(4 << 10)
			default:
				size = rng.Intn(256 << 10)
			}
			buf := make([]byte, size)
			if size > 0 {
				buf[0], buf[size-1] = byte(s), byte(d)
			}
			bufs[s][d] = buf
		}
	}
	return bufs
}

// Property: over random sizes, entry skews and communicator sizes, every
// rank leaves Alltoallv at exactly the instant the reference ring would
// release it, holding exactly the buffers the ring would deliver.
func TestAlltoallvMatchesReferenceRing(t *testing.T) {
	sizes := []int{1, 2, 3, 17, 64}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := sizes[seed%int64(len(sizes))]
		skew := make([]time.Duration, n)
		for r := range skew {
			switch rng.Intn(3) {
			case 0: // enters at once
			case 1:
				skew[r] = time.Duration(rng.Intn(50)) * time.Microsecond
			default: // a straggler, far beyond any transfer time
				skew[r] = time.Duration(rng.Intn(20)) * time.Millisecond
			}
		}
		rounds := [][][][]byte{randomExchange(rng, n), randomExchange(rng, n)}
		want, _ := runExchanges(t, n, skew, rounds, true)
		got, _ := runExchanges(t, n, skew, rounds, false)
		for r := 0; r < n; r++ {
			for i := range rounds {
				if got[r].done[i] != want[r].done[i] {
					t.Fatalf("seed %d W=%d rank %d round %d: completes at %v, reference ring at %v",
						seed, n, r, i, got[r].done[i], want[r].done[i])
				}
				for src := 0; src < n; src++ {
					if !bytes.Equal(got[r].got[i][src], rounds[i][src][r]) ||
						!bytes.Equal(want[r].got[i][src], rounds[i][src][r]) {
						t.Fatalf("seed %d W=%d rank %d round %d: wrong buffer from %d", seed, n, r, i, src)
					}
				}
			}
		}
	}
}

// The exchange costs the scheduler a constant number of events per rank,
// not one per message.
func TestAlltoallvEventsPerRank(t *testing.T) {
	n := 32
	rng := rand.New(rand.NewSource(1))
	_, events := runExchanges(t, n, make([]time.Duration, n), [][][][]byte{randomExchange(rng, n)}, false)
	// Per rank: the start, the wake from the zero-length skew sleep, and the
	// completion wake.
	if events > uint64(3*n) {
		t.Fatalf("one W=%d exchange took %d events, want <= %d", n, events, 3*n)
	}
}

// lateBuffers returns an exchange in which only the pair big→big-1 (the
// ring's last step) carries a large payload, so every rank but those two
// completes early.
func lateBuffers(n, big int) [][][]byte {
	bufs := make([][][]byte, n)
	for s := range bufs {
		bufs[s] = make([][]byte, n)
		for d := range bufs[s] {
			bufs[s][d] = []byte{byte(s), byte(d)}
		}
	}
	bufs[big][big-1] = make([]byte, 64<<20) // 20 ms on the wire
	return bufs
}

// sleepExactly sleeps d and checks nothing woke the rank early: the
// completion wake-up of an interrupted exchange must have been canceled.
func sleepExactly(t *testing.T, c *Comm, d time.Duration) {
	t.Helper()
	t0 := c.Proc().Now()
	c.Proc().Sleep(d)
	if got := c.Proc().Now() - t0; got != d {
		t.Errorf("rank %d: slept %v of %v: a stale wake-up fired", c.Rank(), got, d)
	}
}

// A failure, a revocation or an abort while ranks are inside the exchange
// interrupts exactly the ranks still inside; the survivors can shrink and
// run the exchange again.
func TestAlltoallvInterrupted(t *testing.T) {
	const n, victim, straggler, big = 8, 5, 7, 3
	type outcome struct {
		err  error         // of the interrupted exchange
		at   time.Duration // when it returned
		retr [][]byte      // what the retried exchange delivered
	}
	cases := []struct {
		name string
		// gathering: the straggler enters late and the interruption lands
		// while the others wait for it; otherwise everyone enters at once and
		// it lands after the schedule is armed.
		gathering bool
		at        time.Duration // when the interruption is injected
		revoke    bool          // rank 0 revokes instead of the victim dying
		fatal     bool          // no error handler: the first error aborts the job
		inside    []int         // ranks that must see the error
	}{
		{name: "kill-gathering", gathering: true, at: time.Millisecond, inside: []int{0, 1, 2, 3, 4, 6, 7}},
		{name: "kill-armed-before-any-completion", at: 2 * time.Microsecond, inside: []int{0, 1, 2, 3, 4, 6, 7}},
		{name: "kill-armed-after-some-completions", at: 10 * time.Millisecond, inside: []int{big - 1, big}},
		{name: "revoke-gathering", gathering: true, revoke: true, inside: []int{1, 2, 3, 4, 5, 6, 7}},
		{name: "revoke-armed", revoke: true, inside: []int{big - 1, big}},
		{name: "abort-gathering", gathering: true, at: time.Millisecond, fatal: true},
		{name: "abort-armed", at: 2 * time.Microsecond, fatal: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clus := testCluster(1, n)
			bufs := lateBuffers(n, big)
			res := make([]outcome, n)
			w := Launch(clus, n, func(c *Comm) {
				r := c.Rank()
				if !tc.fatal {
					c.SetErrHandler(func(*Comm, error) {})
				}
				switch {
				case tc.revoke && tc.gathering && r == 0:
					// Revokes from outside while the others gather.
					c.Proc().Sleep(time.Millisecond)
					res[r].err = c.Revoke()
				default:
					if tc.gathering && r == straggler {
						c.Proc().Sleep(5 * time.Millisecond)
					}
					_, res[r].err = c.Alltoallv(bufs[r])
					res[r].at = c.Proc().Now()
					if tc.revoke && r == 0 && res[r].err == nil {
						// Completed early; revokes those still inside.
						res[r].err = c.Revoke()
					}
				}
				if tc.fatal {
					c.Proc().Yield() // the aborting rank unwinds at its next park
					t.Errorf("rank %d survived the abort", r)
					return
				}
				if !tc.revoke {
					// Nobody revokes before the kill has landed and the straggler
					// has run into the dead member on its own (a rank that
					// completed early, the victim included, waits here).
					sleepExactly(t, c, 15*time.Millisecond-c.Proc().Now())
					_ = c.Revoke()
				}
				nc, err := c.Shrink()
				if err != nil {
					t.Errorf("rank %d: shrink: %v", r, err)
					return
				}
				m := nc.Size()
				again := make([][]byte, m)
				for d := range again {
					again[d] = []byte{byte(c.WorldRank(r)), byte(nc.WorldRank(d))}
				}
				if res[r].retr, err = nc.Alltoallv(again); err != nil {
					t.Errorf("rank %d: retried exchange: %v", r, err)
				}
				sleepExactly(t, c, 50*time.Millisecond)
			})
			if !tc.revoke {
				clus.Sim.After(tc.at, func() { w.Kill(victim) })
			}
			clus.Sim.Run()
			if st := clus.Sim.Stranded(); len(st) != 0 {
				t.Fatalf("stranded procs: %v", st)
			}
			if tc.fatal {
				if !w.Aborted() || w.AliveCount() != 0 {
					t.Fatalf("aborted=%v alive=%d, want an aborted world with no survivor", w.Aborted(), w.AliveCount())
				}
				return
			}
			inside := make(map[int]bool)
			for _, r := range tc.inside {
				inside[r] = true
			}
			for r := 0; r < n; r++ {
				if r == victim && !tc.revoke {
					continue
				}
				err := res[r].err
				switch {
				case inside[r] && !tc.revoke && !IsProcFailed(err),
					inside[r] && tc.revoke && !errors.Is(err, ErrRevoked),
					!inside[r] && err != nil:
					t.Errorf("rank %d: exchange error = %v (expected to be interrupted: %v)", r, err, inside[r])
				}
				if !inside[r] && res[r].at > time.Millisecond {
					t.Errorf("rank %d completed at %v, want before the big transfer ends", r, res[r].at)
				}
				if res[r].retr == nil {
					t.Errorf("rank %d: no retried exchange", r)
					continue
				}
				for src, b := range res[r].retr {
					if len(b) != 2 || int(b[1]) != r {
						t.Errorf("rank %d: retried exchange delivered %v from new rank %d", r, b, src)
					}
				}
			}
		})
	}
}

// What the three planes see of each kind of meeting: per rank, the row's
// trace events once each and its counter once — no per-pair send/recv
// events, counters or flows (those stay point-to-point quantities, equal by
// construction) — and, while a sleeping straggler keeps the meeting
// gathering, every entrant parked as "collective" in that op with one
// wait-for edge, to the straggler; never a stall, and no edge once every
// rank is inside (the alltoallv row's big transfer keeps two ranks inside
// the armed exchange for 20 ms after that).
func TestAlltoallvAsThePlanesSeeIt(t *testing.T) {
	const n, straggler = 6, 4
	bufs := lateBuffers(n, 3)
	for _, tc := range []struct {
		op      string
		counter string
		kinds   []trace.Kind
		armed   int // ranks still inside at 6 ms
		meet    func(c *Comm) error
	}{
		{"alltoallv", "ftmr_mpi_collectives", []trace.Kind{trace.KindCollBegin, trace.KindCollEnd}, 2, func(c *Comm) error {
			_, err := c.Alltoallv(bufs[c.Rank()])
			return err
		}},
		{"barrier", "ftmr_mpi_collectives", []trace.Kind{trace.KindCollBegin, trace.KindCollEnd}, 0, (*Comm).Barrier},
		{"shrink", "ftmr_mpi_shrinks", []trace.Kind{trace.KindShrinkBegin, trace.KindAgreeBegin, trace.KindAgreeEnd, trace.KindShrinkEnd}, 0, func(c *Comm) error {
			_, err := c.Shrink()
			return err
		}},
		{"agree", "ftmr_mpi_agrees", []trace.Kind{trace.KindAgreeBegin, trace.KindAgreeEnd}, 0, func(c *Comm) error {
			_, err := c.Agree(1)
			return err
		}},
	} {
		t.Run(tc.op, func(t *testing.T) {
			clus := testCluster(1, n)
			clus.Trace = trace.New(clus.Sim, 1<<10)
			clus.Metrics = metrics.New(clus.Sim)
			clus.Introspect = introspect.New(clus.Sim, 3*time.Millisecond)
			Launch(clus, n, func(c *Comm) {
				if c.Rank() == straggler {
					c.Proc().Sleep(5 * time.Millisecond)
				}
				if err := tc.meet(c); err != nil {
					t.Errorf("rank %d: %v", c.Rank(), err)
				}
			})
			clus.Introspect.Start()
			clus.Sim.Run()
			clus.Introspect.Final()

			snap := clus.Metrics.Snapshot()
			if got := snap.Total(tc.counter); got != n {
				t.Errorf("%s = %v, want %d", tc.counter, got, n)
			}
			if s, r := snap.Total("ftmr_mpi_sends"), snap.Total("ftmr_mpi_recvs"); s != 0 || r != 0 {
				t.Errorf("ftmr_mpi_sends = %v, ftmr_mpi_recvs = %v, want no point-to-point traffic", s, r)
			}
			kinds := make(map[trace.Kind]int)
			for _, ev := range clus.Trace.Events() {
				kinds[ev.Kind]++
			}
			want := make(map[trace.Kind]int)
			for _, k := range tc.kinds {
				want[k] = n
			}
			if !maps.Equal(kinds, want) {
				t.Errorf("trace event kinds = %v, want %v", kinds, want)
			}
			if st := clus.Introspect.Stalls(); len(st) != 0 {
				t.Errorf("stall reports: %+v", st)
			}
			// At 3 ms everyone but the straggler is parked gathering.
			snaps := clus.Introspect.Snapshots()
			if len(snaps) < 2 {
				t.Fatalf("%d snapshots, want at least 2", len(snaps))
			}
			var edges []introspect.Edge
			for _, rs := range snaps[0].Ranks {
				if rs.Rank == straggler {
					if rs.State != introspect.StateTimer {
						t.Errorf("at 3ms the straggler is %s, want %s", rs.State, introspect.StateTimer)
					}
					continue
				}
				if rs.State != introspect.StateColl || rs.Op != tc.op {
					t.Errorf("at 3ms rank %d is %s %q, want %s %q", rs.Rank, rs.State, rs.Op, introspect.StateColl, tc.op)
				}
				edges = append(edges, introspect.Edge{From: rs.Rank, To: straggler, Why: introspect.WhyColl})
			}
			if !slices.Equal(snaps[0].Edges, edges) {
				t.Errorf("at 3ms edges = %+v, want one from each entrant to the straggler: %+v", snaps[0].Edges, edges)
			}
			for _, s := range snaps[1:] {
				if len(s.Edges) != 0 {
					t.Errorf("at %vus, with every rank inside, edges = %+v", s.VTus, s.Edges)
				}
			}
			inside := 0
			for _, rs := range snaps[1].Ranks {
				if rs.State == introspect.StateColl {
					inside++
				}
			}
			if inside != tc.armed {
				t.Errorf("at 6ms %d ranks are inside, want %d", inside, tc.armed)
			}
		})
	}
}
