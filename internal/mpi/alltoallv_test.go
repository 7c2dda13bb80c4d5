package mpi

import (
	"bytes"
	"errors"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

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
		out[src] = m.Val.([]byte)
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

// sparseRank is one rank's side of a sparse exchange: the value it passes
// and its routes, by ascending peer.
type sparseRank struct {
	val  any
	send []Block
}

// randomSparse draws one sparse exchange: each rank sends to a random subset
// of the ranks, itself included at times, some routes empty, and some ranks
// send nothing at all. A rank's value is its buffers by peer, nil where it
// sends no route.
func randomSparse(rng *rand.Rand, n int) []sparseRank {
	ranks := make([]sparseRank, n)
	for s := range ranks {
		if rng.Intn(5) == 0 {
			continue
		}
		data := make([][]byte, n)
		density := rng.Float64()
		for d := 0; d < n; d++ {
			if rng.Float64() >= density {
				continue
			}
			var buf []byte
			switch rng.Intn(4) {
			case 0: // an empty route: priced as no route, delivered as one
			case 1:
				buf = make([]byte, 1+rng.Intn(64))
			default:
				buf = make([]byte, 1+rng.Intn(64<<10))
			}
			if len(buf) > 0 {
				buf[0], buf[len(buf)-1] = byte(s), byte(d)
			}
			data[d] = buf
			ranks[s].send = append(ranks[s].send, Block{Peer: int32(d), Size: int32(len(buf))})
		}
		ranks[s].val = data
	}
	return ranks
}

// declared is the price row's 64 KiB on the wire.
var declared = make([]byte, 64<<10)

// pricedSparse is an exchange over randomSparse's peers in which every rank's
// value is an 8-byte int64 and every route is declared at 64 KiB.
func pricedSparse(rng *rand.Rand, n int) []sparseRank {
	ranks := randomSparse(rng, n)
	for s := range ranks {
		ranks[s].val = int64(s)
		for i := range ranks[s].send {
			ranks[s].send[i].Size = int32(len(declared))
		}
	}
	return ranks
}

// denseOf is a sparse exchange as the reference ring's buffers: bufs[s][d]
// is what s's route to d carries, its bytes, or as many bytes as it declares
// when the value is not bytes, and nil for no route.
func denseOf(n int, ranks []sparseRank) [][][]byte {
	bufs := make([][][]byte, n)
	for s, rk := range ranks {
		bufs[s] = make([][]byte, n)
		for _, b := range rk.send {
			data, ok := rk.val.([][]byte)
			if !ok {
				bufs[s][b.Peer] = declared[:b.Size]
				continue
			}
			bufs[s][b.Peer] = data[b.Peer]
		}
	}
	return bufs
}

// sameVal reports whether a receiver holds the very value its sender passed:
// the same buffers, not a copy of them, or an equal int64.
func sameVal(got, sent any) bool {
	if x, ok := sent.([][]byte); ok {
		y, ok := got.([][]byte)
		return ok && len(x) == len(y) && &x[0] == &y[0]
	}
	return got == sent
}

// sparseRun is what one rank observed over a sequence of sparse exchanges:
// each one's completion instant, routes received and values.
type sparseRun struct {
	done []time.Duration
	recv [][]Block
	vals [][]any
}

// runSparseExchanges is runExchanges through AlltoallvSparse: rounds[i][r] is
// rank r's side of round i.
func runSparseExchanges(t *testing.T, n int, skew []time.Duration, rounds [][]sparseRank) []sparseRun {
	t.Helper()
	clus := testCluster((n+7)/8, 8)
	runs := make([]sparseRun, n)
	Launch(clus, n, func(c *Comm) {
		r := c.Rank()
		c.Proc().Sleep(skew[r])
		for i, ranks := range rounds {
			recv, vals, err := c.AlltoallvSparse(ranks[r].val, ranks[r].send)
			if err != nil {
				t.Errorf("rank %d round %d: %v", r, i, err)
				return
			}
			runs[r].done = append(runs[r].done, c.Proc().Now())
			runs[r].recv = append(runs[r].recv, recv)
			runs[r].vals = append(runs[r].vals, vals)
		}
	})
	clus.Sim.Run()
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded procs: %v", st)
	}
	return runs
}

// Property: over random sparse send lists (self-routes and empty routes
// included), entry skews and communicator sizes, a round in which no rank
// sends anything and a round of 8-byte values routed at 64 KiB, every rank
// leaves AlltoallvSparse at exactly the instant the reference ring would
// release it for buffers of the routes' sizes (a peer with no route sent 0
// bytes), holding every route sent to it, once, as (source, size), by
// ascending source, and, for each source, the very value that source passed.
func TestAlltoallvSparseMatchesReferenceRing(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 17}
	for seed := int64(0); seed < 36; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := sizes[seed%int64(len(sizes))]
		skew := make([]time.Duration, n)
		for r := range skew {
			if rng.Intn(2) == 0 {
				skew[r] = time.Duration(rng.Intn(5000)) * time.Microsecond
			}
		}
		rounds := [][]sparseRank{randomSparse(rng, n), make([]sparseRank, n), randomSparse(rng, n), pricedSparse(rng, n)}
		dense := make([][][][]byte, len(rounds))
		for i, ranks := range rounds {
			dense[i] = denseOf(n, ranks)
		}
		want, _ := runExchanges(t, n, skew, dense, true)
		got := runSparseExchanges(t, n, skew, rounds)
		for r := 0; r < n; r++ {
			for i, ranks := range rounds {
				if got[r].done[i] != want[r].done[i] {
					t.Fatalf("seed %d W=%d rank %d round %d: completes at %v, reference ring at %v",
						seed, n, r, i, got[r].done[i], want[r].done[i])
				}
				var expect []Block
				for src, rk := range ranks {
					for _, b := range rk.send {
						if int(b.Peer) == r {
							expect = append(expect, Block{Peer: int32(src), Size: b.Size})
						}
					}
				}
				if recv := got[r].recv[i]; !slices.Equal(recv, expect) {
					t.Fatalf("seed %d W=%d rank %d round %d: routes %v arrived, %v were sent", seed, n, r, i, recv, expect)
				}
				for _, b := range expect {
					if v := got[r].vals[i][b.Peer]; !sameVal(v, ranks[b.Peer].val) {
						t.Fatalf("seed %d W=%d rank %d round %d: holds %T from %d, not the value it passed", seed, n, r, i, v, b.Peer)
					}
				}
			}
		}
	}
}

// A send list whose peers are out of order, repeated or outside the
// communicator, or a route of negative size, is refused with an error before
// the collective is entered, as is a dense buffer over math.MaxInt32 bytes —
// not priced as something else, and no panic — so the valid exchange that
// follows still lines up on every rank.
func TestAlltoallvSparseRefusesBadSendLists(t *testing.T) {
	const n = 4
	bad := map[string][]Block{
		"unsorted":      {{Peer: 2}, {Peer: 1}},
		"duplicate":     {{Peer: 1}, {Peer: 1}},
		"negative":      {{Peer: -1}},
		"past-end":      {{Peer: 0}, {Peer: n}},
		"negative-size": {{Peer: 0, Size: 8}, {Peer: 1, Size: -1}},
	}
	// A buffer one byte over the bound that nothing reads: a slice header
	// over one byte.
	var one [1]byte
	hdr := struct {
		data     unsafe.Pointer
		len, cap int
	}{unsafe.Pointer(&one[0]), math.MaxInt32 + 1, math.MaxInt32 + 1}
	huge := *(*[]byte)(unsafe.Pointer(&hdr))
	clus := testCluster(1, n)
	done := 0
	Launch(clus, n, func(c *Comm) {
		for what, send := range bad {
			if _, _, err := c.AlltoallvSparse(nil, send); err == nil || !strings.HasPrefix(err.Error(), "mpi: AlltoallvSparse: block ") {
				t.Errorf("rank %d: %s send list: err = %v", c.Rank(), what, err)
			}
		}
		if _, _, err := c.AlltoallvSparse(nil, bad["negative-size"]); err == nil || !strings.Contains(err.Error(), "block 1 to peer 1 has a negative size, -1") {
			t.Errorf("rank %d: a negative size: err = %v", c.Rank(), err)
		}
		bufs := make([][]byte, n)
		bufs[2] = huge
		if _, err := c.Alltoallv(bufs); err == nil || err.Error() != "mpi: Alltoallv: the buffer for rank 2 is 2147483648 bytes, over the 2 GiB bound" {
			t.Errorf("rank %d: a 2 GiB buffer: err = %v", c.Rank(), err)
		}
		recv, vals, err := c.AlltoallvSparse(c.Rank(), []Block{{Peer: int32((c.Rank() + 1) % n), Size: 8}})
		if want := (c.Rank() + n - 1) % n; err != nil || len(recv) != 1 || recv[0] != (Block{Peer: int32(want), Size: 8}) || vals[want] != want {
			t.Errorf("rank %d: the valid exchange got %v, %v, %v", c.Rank(), recv, vals, err)
		}
		done++
	})
	clus.Sim.Run()
	if done != n {
		t.Fatalf("%d of %d ranks finished", done, n)
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

// sparseOf is rank s's routes over its buffers: its big one, if any, and
// the buffers to every other peer.
func sparseOf(s int, bufs [][]byte) []Block {
	var send []Block
	for d, b := range bufs {
		if (d+s)%2 == 0 || len(b) > 2 {
			send = append(send, Block{Peer: int32(d), Size: int32(len(b))})
		}
	}
	return send
}

// A failure, a revocation or an abort while ranks are inside the exchange
// interrupts exactly the ranks still inside; the survivors can shrink and
// run the exchange again. Every case runs through Alltoallv and through
// AlltoallvSparse with a sparse send list.
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
			for _, sparse := range []bool{false, true} {
				t.Run(map[bool]string{false: "dense", true: "sparse"}[sparse], func(t *testing.T) {
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
							if sparse {
								_, _, res[r].err = c.AlltoallvSparse(bufs[r], sparseOf(r, bufs[r]))
							} else {
								_, res[r].err = c.Alltoallv(bufs[r])
							}
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
						if sparse {
							var recv []Block
							var vals []any
							send := make([]Block, m)
							for d := range send {
								send[d] = Block{Peer: int32(d), Size: int32(len(again[d]))}
							}
							recv, vals, err = nc.AlltoallvSparse(again, send)
							for _, b := range recv {
								res[r].retr = append(res[r].retr, vals[b.Peer].([][]byte)[nc.Rank()])
							}
						} else {
							res[r].retr, err = nc.Alltoallv(again)
						}
						if err != nil {
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
		})
	}
}

// What the three planes see of each kind of meeting: per rank, the row's
// trace events once each and its counter once — no per-pair send/recv
// events, counters or flows (those stay point-to-point quantities, equal by
// construction) — and, while a sleeping straggler keeps the meeting
// gathering, every entrant parked as "collective" in that op and in one
// wait set, waiting for the straggler; never a stall, and no wait once every
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
			var entrants []int
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
				entrants = append(entrants, rs.Rank)
			}
			if w := snaps[0].Waits; len(w) != 1 || !slices.Equal(w[0].From, entrants) || !slices.Equal(w[0].To, []int{straggler}) {
				t.Errorf("at 3ms waits = %+v, want one set: entrants %v waiting for the straggler", w, entrants)
			}
			for _, s := range snaps[1:] {
				if len(s.Waits) != 0 {
					t.Errorf("at %vus, with every rank inside, waits = %+v", s.VTus, s.Waits)
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

// TestGatheringShrinkIsOneWaitSet: a W=256 Shrink that eight live ranks have
// not entered is captured as one wait set (every entrant waits for the same
// eight), so its snapshot line grows with the world, not with entrants x
// missing members.
func TestGatheringShrinkIsOneWaitSet(t *testing.T) {
	const n, outside = 256, 8
	clus := testCluster(16, 16)
	clus.Introspect = introspect.New(clus.Sim, 3*time.Millisecond)
	Launch(clus, n, func(c *Comm) {
		if c.Rank()%(n/outside) == 1 {
			c.Proc().Sleep(5 * time.Millisecond)
		}
		if _, err := c.Shrink(); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
	})
	clus.Introspect.Start()
	clus.Sim.Run()

	snaps := clus.Introspect.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no snapshot")
	}
	var from, to []int
	for r := range n {
		if r%(n/outside) == 1 {
			to = append(to, r)
		} else {
			from = append(from, r)
		}
	}
	w := snaps[0].Waits
	if len(w) != 1 || !slices.Equal(w[0].From, from) || !slices.Equal(w[0].To, to) {
		t.Fatalf("at 3ms waits = %+v, want one set: %d entrants waiting for %v", w, len(from), to)
	}
	var buf bytes.Buffer
	if err := clus.Introspect.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	line := bytes.SplitN(buf.Bytes(), []byte("\n"), 3)[1] // after the header
	if len(line) > 200*n {
		t.Errorf("the 3ms snapshot line is %d B, want at most 200 B a rank (%d B)", len(line), 200*n)
	}
}

// exchangeBytes returns the bytes one exchange allocates in a W=n world
// whose ranks each pass one value and route 64 bytes to each of the next 8
// ranks:
// what is allocated between an instant when every rank sleeps after a first
// exchange and one when every rank sleeps after a second, the least of three
// runs.
func exchangeBytes(tb testing.TB, n int) uint64 {
	var payload any = make([]byte, 64)
	least := uint64(math.MaxUint64)
	for rep := 0; rep < 3; rep++ {
		clus := testCluster(n/8, 8)
		Launch(clus, n, func(c *Comm) {
			send := make([]Block, 0, 8)
			for i := 1; i <= 8; i++ {
				send = append(send, Block{Peer: int32((c.Rank() + i) % n), Size: 64})
			}
			slices.SortFunc(send, func(a, b Block) int { return int(a.Peer - b.Peer) })
			for i := 0; i < 2; i++ {
				if _, _, err := c.AlltoallvSparse(payload, send); err != nil {
					tb.Error(err)
				}
				c.Proc().Sleep(time.Second - c.Proc().Now()%time.Second)
			}
		})
		var at [2]runtime.MemStats
		for i := range at {
			clus.Sim.After(time.Duration(i)*time.Second+time.Second/2, func() { runtime.ReadMemStats(&at[i]) })
		}
		clus.Sim.Run()
		least = min(least, at[1].TotalAlloc-at[0].TotalAlloc)
	}
	return least
}

// TestExchangeAllocsFlatInW is the exchange's allocation gate (make
// alloc-gate): with 8 non-empty routes per rank, the bytes one exchange
// allocates per rank are the same at W=2048 as at W=512 (328 B and 330 B,
// measured on amd64; 501 B and 506 B when every route was a boxed block).
// What the meeting allocates in O(W) per exchange (its entrant lists, the
// ring's instants and cursors, the dealt routes and their offsets, the
// values by rank) is constant per rank, so the two may differ only by its
// rounding, bound at one word a rank; a W-entry table per rank (the dense
// exchange's result) would add 24 B per rank per rank: 36 KiB a rank more at
// W=2048.
func TestExchangeAllocsFlatInW(t *testing.T) {
	perRank := make(map[int]float64)
	for _, n := range []int{512, 2048} {
		perRank[n] = float64(exchangeBytes(t, n)) / float64(n)
	}
	t.Logf("one exchange allocates %.1f B per rank at W=512, %.1f at W=2048", perRank[512], perRank[2048])
	if d := math.Abs(perRank[2048] - perRank[512]); d > 8 {
		t.Fatalf("one exchange allocates %.1f B per rank at W=512 but %.1f at W=2048: it grows with W", perRank[512], perRank[2048])
	}
}
