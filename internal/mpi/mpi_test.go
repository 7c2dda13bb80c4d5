package mpi

import (
	"errors"
	"maps"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/trace"
)

// testCluster returns a small cluster for MPI-level tests.
func testCluster(nodes, ppn int) *cluster.Cluster {
	cfg := cluster.Default()
	cfg.Nodes = nodes
	cfg.PPN = ppn
	return cluster.New(cfg)
}

func TestSendRecvBasic(t *testing.T) {
	clus := testCluster(2, 1)
	var got string
	var at time.Duration
	Launch(clus, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			if err := c.Send(1, 7, []byte("hello")); err != nil {
				t.Errorf("send: %v", err)
			}
		case 1:
			m, err := c.Recv(0, 7)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = string(m.Val.([]byte))
			at = c.Proc().Now()
		}
	})
	clus.Sim.Run()
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
	if at <= 0 {
		t.Fatal("no wire time charged")
	}
}

// TestSendValPricedAtDeclaredSize: a send of an 8-byte value declared at
// 64 KiB costs the sender the wire time of 64 KiB, is counted and traced at
// 64 KiB on both sides, and hands the receiver the sent value itself. A
// negative size is refused by name before anything is sent.
func TestSendValPricedAtDeclaredSize(t *testing.T) {
	const size = 64 << 10
	clus := testCluster(2, 1)
	clus.Trace = trace.New(clus.Sim, 1<<10)
	clus.Metrics = metrics.New(clus.Sim)
	sent := new(int64)
	var got *Message
	var took time.Duration
	var refused error
	Launch(clus, 2, func(c *Comm) {
		if c.Rank() == 0 {
			refused = c.SendVal(1, 3, sent, -1)
			if err := c.SendVal(1, 3, sent, size); err != nil {
				t.Errorf("send: %v", err)
			}
			took = c.Proc().Now()
			return
		}
		m, err := c.Recv(0, 3)
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got = m
	})
	clus.Sim.Run()
	if want := "mpi: SendVal: message to rank 1 has a negative size, -1"; refused == nil || refused.Error() != want {
		t.Errorf("a negative size: %v, want %q", refused, want)
	}
	if want := clus.TransferCost(size); took != want {
		t.Errorf("the send took %v, want the wire time of %d bytes, %v", took, size, want)
	}
	if got == nil || got.Val != any(sent) || got.Size != size {
		t.Fatalf("received %+v, want the sent *int64 itself at %d bytes", got, size)
	}
	snap := clus.Metrics.Snapshot()
	for _, name := range []string{"ftmr_mpi_send_bytes", "ftmr_mpi_recv_bytes"} {
		if n := snap.Total(name); n != size {
			t.Errorf("%s = %v, want %d", name, n, size)
		}
	}
	ends := map[trace.Kind]int64{}
	for _, ev := range clus.Trace.Events() {
		if ev.Kind == trace.KindSendEnd || ev.Kind == trace.KindRecvEnd {
			ends[ev.Kind] = ev.C
		}
	}
	if want := map[trace.Kind]int64{trace.KindSendEnd: size, trace.KindRecvEnd: size}; !maps.Equal(ends, want) {
		t.Errorf("traced sizes %v, want %v", ends, want)
	}
}

// TestRecvWildcards: TryRecv's AnySource takes the buffered messages in
// arrival order, whichever rank sent them.
func TestRecvWildcards(t *testing.T) {
	clus := testCluster(3, 1)
	var srcs []int
	Launch(clus, 3, func(c *Comm) {
		if c.Rank() == 0 {
			c.Proc().Sleep(time.Second)
			for i := 0; i < 2; i++ {
				m, ok, err := c.TryRecv(AnySource, 7)
				if err != nil || !ok {
					t.Errorf("TryRecv = %v, %v", ok, err)
					return
				}
				srcs = append(srcs, m.Src)
			}
			return
		}
		c.Proc().Sleep(time.Duration(c.Rank()) * time.Millisecond)
		if err := c.Send(0, 7, []byte{byte(c.Rank())}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	clus.Sim.Run()
	if len(srcs) != 2 || srcs[0] != 1 || srcs[1] != 2 {
		t.Fatalf("srcs = %v", srcs)
	}
}

// TestRecvNamesItsSource: a blocking receive names a rank of the
// communicator; anything else is refused on the spot, before it can park.
func TestRecvNamesItsSource(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  int
	}{
		{"any-source", AnySource},
		{"below-range", -5},
		{"past-the-last-rank", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clus := testCluster(2, 1)
			var err error
			w := Launch(clus, 2, func(c *Comm) {
				if c.Rank() == 0 {
					_, err = c.Recv(tc.src, 1)
				}
			})
			clus.Sim.Run()
			if err == nil {
				t.Fatalf("Recv(%d) was accepted", tc.src)
			}
			if w.Aborted() || len(clus.Sim.Stranded()) != 0 {
				t.Fatalf("Recv(%d) aborted the job or left a rank parked", tc.src)
			}
		})
	}
}

// TestFlowIDsAreWorldUnique sends from several ranks concurrently and checks
// no two sends ever share a flow id — what lets the trace pair every
// recv.end with exactly one send.end.
func TestFlowIDsAreWorldUnique(t *testing.T) {
	clus := testCluster(4, 1)
	const per = 8
	seen := make(map[uint64]int)
	Launch(clus, 4, func(c *Comm) {
		n := c.Size()
		if c.Rank() == 0 {
			for src := 1; src < n; src++ {
				for i := 0; i < per; i++ {
					m, err := c.Recv(src, 5)
					if err != nil {
						t.Errorf("recv from %d: %v", src, err)
						return
					}
					seen[m.id]++
				}
			}
			return
		}
		for i := 0; i < per; i++ {
			if err := c.Send(0, 5, []byte{byte(i)}); err != nil {
				t.Errorf("rank %d send %d: %v", c.Rank(), i, err)
				return
			}
		}
	})
	clus.Sim.Run()
	if len(seen) != per*3 {
		t.Fatalf("%d distinct flow ids across %d sends", len(seen), per*3)
	}
	for id, n := range seen {
		if id == 0 || n != 1 {
			t.Fatalf("flow id %d delivered %d times", id, n)
		}
	}
}

func TestTryRecv(t *testing.T) {
	clus := testCluster(2, 1)
	Launch(clus, 2, func(c *Comm) {
		if c.Rank() == 0 {
			if _, ok, _ := c.TryRecv(AnySource, 3); ok {
				t.Error("TryRecv matched on empty mailbox")
			}
			c.Proc().Sleep(time.Second)
			m, ok, err := c.TryRecv(1, 3)
			if err != nil || !ok || string(m.Val.([]byte)) != "x" {
				t.Errorf("TryRecv = %v %v %v", m, ok, err)
			}
			return
		}
		if err := c.Send(0, 3, []byte("x")); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	clus.Sim.Run()
}

func TestBarrierSynchronizes(t *testing.T) {
	clus := testCluster(4, 2)
	n := 8
	var after []time.Duration
	Launch(clus, n, func(c *Comm) {
		c.Proc().Sleep(time.Duration(c.Rank()) * time.Second)
		if err := c.Barrier(); err != nil {
			t.Errorf("barrier: %v", err)
			return
		}
		after = append(after, c.Proc().Now())
	})
	clus.Sim.Run()
	if len(after) != n {
		t.Fatalf("%d ranks passed the barrier", len(after))
	}
	for _, d := range after {
		if d < 7*time.Second {
			t.Fatalf("rank exited barrier at %v, before slowest entered", d)
		}
	}
}

func TestAllgatherAllreduce(t *testing.T) {
	clus := testCluster(4, 2)
	n := 7 // non-power-of-two on purpose
	sum := make(chan int64, n)
	Launch(clus, n, func(c *Comm) {
		// Allgather.
		all, err := c.Allgather([]byte{byte(c.Rank() + 1)})
		if err != nil {
			t.Errorf("allgather: %v", err)
			return
		}
		for r, d := range all {
			if len(d) != 1 || d[0] != byte(r+1) {
				t.Errorf("allgather[%d] = %v", r, d)
			}
		}
		// Allreduce sum.
		s, err := c.AllreduceInt64(int64(c.Rank()+1), func(a, b int64) int64 { return a + b })
		if err != nil {
			t.Errorf("allreduce: %v", err)
			return
		}
		sum <- s
	})
	clus.Sim.Run()
	close(sum)
	count := 0
	for s := range sum {
		count++
		if s != 28 { // 1+..+7
			t.Fatalf("allreduce sum = %d, want 28", s)
		}
	}
	if count != n {
		t.Fatalf("%d ranks finished allreduce", count)
	}
}

func TestAlltoallvCorrectness(t *testing.T) {
	clus := testCluster(4, 2)
	n := 6
	rng := rand.New(rand.NewSource(42))
	// inputs[src][dst] = payload
	inputs := make([][][]byte, n)
	for s := range inputs {
		inputs[s] = make([][]byte, n)
		for d := range inputs[s] {
			buf := make([]byte, rng.Intn(2000))
			rng.Read(buf)
			inputs[s][d] = buf
		}
	}
	outputs := make([][][]byte, n)
	Launch(clus, n, func(c *Comm) {
		// One buffer per rank, or the call is refused before it enters the
		// collective: the exchange below still lines up on every rank.
		if _, err := c.Alltoallv(inputs[c.Rank()][:n-1]); err == nil {
			t.Errorf("rank %d: Alltoallv accepted %d buffers for %d ranks", c.Rank(), n-1, n)
		}
		out, err := c.Alltoallv(inputs[c.Rank()])
		if err != nil {
			t.Errorf("alltoallv: %v", err)
			return
		}
		outputs[c.Rank()] = out
	})
	clus.Sim.Run()
	for d := 0; d < n; d++ {
		for s := 0; s < n; s++ {
			got, want := outputs[d][s], inputs[s][d]
			if string(got) != string(want) {
				t.Fatalf("dst %d src %d: got %d bytes, want %d", d, s, len(got), len(want))
			}
		}
	}
}

func TestFailureSurfacesAsLocalError(t *testing.T) {
	clus := testCluster(3, 1)
	var sendErr, recvErr error
	w := Launch(clus, 3, func(c *Comm) {
		c.SetErrHandler(func(*Comm, error) {})
		switch c.Rank() {
		case 0:
			c.Proc().Sleep(2 * time.Second)
			sendErr = c.Send(2, 1, []byte("x")) // rank 2 dead by now
		case 1:
			_, recvErr = c.Recv(2, 5) // blocks, then rank 2 dies
		case 2:
			c.Proc().Sleep(time.Hour)
		}
	})
	clus.Sim.After(time.Second, func() { w.Kill(2) })
	clus.Sim.Run()
	if !IsProcFailed(sendErr) {
		t.Fatalf("send error = %v, want ProcFailedError", sendErr)
	}
	if !IsProcFailed(recvErr) {
		t.Fatalf("recv error = %v, want ProcFailedError", recvErr)
	}
}

func TestDefaultHandlerAbortsJob(t *testing.T) {
	// With no error handler installed (MPI_ERRORS_ARE_FATAL), a failure
	// detected by any rank aborts the whole job, and no rank hangs.
	clus := testCluster(4, 2)
	n := 8
	completed := 0
	w := Launch(clus, n, func(c *Comm) {
		for i := 0; i < 1000; i++ {
			if err := c.Barrier(); err != nil {
				return
			}
			c.Proc().Sleep(time.Second)
		}
		completed++
	})
	clus.Sim.After(2500*time.Millisecond, func() { w.Kill(3) })
	clus.Sim.Run()
	if !w.Aborted() {
		t.Fatal("job was not aborted")
	}
	if completed != 0 {
		t.Fatalf("%d ranks completed despite abort", completed)
	}
	if st := clus.Sim.Stranded(); len(st) != 0 {
		t.Fatalf("stranded procs after abort: %v", st)
	}
}

func TestErrHandlerInvoked(t *testing.T) {
	clus := testCluster(2, 1)
	calls := 0
	w := Launch(clus, 2, func(c *Comm) {
		c.SetErrHandler(func(_ *Comm, err error) { calls++ })
		if c.Rank() == 0 {
			_, _ = c.Recv(1, 1)
		} else {
			c.Proc().Sleep(time.Hour)
		}
	})
	clus.Sim.After(time.Second, func() { w.Kill(1) })
	clus.Sim.Run()
	if calls != 1 {
		t.Fatalf("handler called %d times, want 1", calls)
	}
}

func TestRevokeInterruptsEveryone(t *testing.T) {
	clus := testCluster(4, 2)
	n := 6
	revokedErrs := 0
	Launch(clus, n, func(c *Comm) {
		c.SetErrHandler(func(*Comm, error) {})
		if c.Rank() == 0 {
			c.Proc().Sleep(time.Second)
			if err := c.Revoke(); err != nil {
				t.Errorf("revoke: %v", err)
			}
			// Future op on revoked comm errors too.
			if err := c.Send(1, 1, nil); !errors.Is(err, ErrRevoked) {
				t.Errorf("send after revoke = %v", err)
			}
			return
		}
		_, err := c.Recv(0, 1)
		if errors.Is(err, ErrRevoked) {
			revokedErrs++
		}
	})
	clus.Sim.Run()
	if revokedErrs != n-1 {
		t.Fatalf("%d ranks saw ErrRevoked, want %d", revokedErrs, n-1)
	}
}

func TestShrinkAfterFailure(t *testing.T) {
	clus := testCluster(4, 2)
	n := 8
	kill := 3
	sums := make(chan int64, n)
	w := Launch(clus, n, func(c *Comm) {
		c.SetErrHandler(func(*Comm, error) {})
		// Everyone blocks in a barrier loop until the failure interrupts.
		for {
			err := c.Barrier()
			if err == nil {
				c.Proc().Sleep(100 * time.Millisecond)
				continue
			}
			if !errors.Is(err, ErrRevoked) {
				// First detector revokes.
				c.Revoke()
			}
			break
		}
		nc, err := c.Shrink()
		if err != nil {
			t.Errorf("shrink: %v", err)
			return
		}
		if nc.Size() != n-1 {
			t.Errorf("shrunk size = %d, want %d", nc.Size(), n-1)
		}
		// The new communicator is fully functional.
		s, err := nc.AllreduceInt64(int64(nc.WorldRank(nc.Rank())), func(a, b int64) int64 { return a + b })
		if err != nil {
			t.Errorf("allreduce on shrunk comm: %v", err)
			return
		}
		sums <- s
	})
	clus.Sim.After(time.Second, func() { w.Kill(kill) })
	clus.Sim.Run()
	close(sums)
	want := int64(0)
	for r := 0; r < n; r++ {
		if r != kill {
			want += int64(r)
		}
	}
	count := 0
	for s := range sums {
		count++
		if s != want {
			t.Fatalf("sum = %d, want %d", s, want)
		}
	}
	if count != n-1 {
		t.Fatalf("%d survivors completed, want %d", count, n-1)
	}
}

func TestAgreeAndsFlagsAndSurvivesFailure(t *testing.T) {
	clus := testCluster(4, 2)
	n := 6
	results := make(chan int, n)
	w := Launch(clus, n, func(c *Comm) {
		c.SetErrHandler(func(*Comm, error) {})
		if c.Rank() == 5 {
			c.Proc().Sleep(time.Hour) // will be killed before joining
			return
		}
		c.Proc().Sleep(2 * time.Second) // ensure kill happened
		flag := 0b111
		if c.Rank() == 1 {
			flag = 0b101
		}
		res, err := c.Agree(flag)
		if err != nil {
			t.Errorf("agree: %v", err)
			return
		}
		results <- res
	})
	clus.Sim.After(time.Second, func() { w.Kill(5) })
	clus.Sim.Run()
	close(results)
	count := 0
	for r := range results {
		count++
		if r != 0b101 {
			t.Fatalf("agree = %b, want 101", r)
		}
	}
	if count != n-1 {
		t.Fatalf("%d ranks completed agree", count)
	}
}

// Property: Alltoallv is a permutation — every byte sent arrives exactly
// once at the right place, for arbitrary sizes.
func TestPropAlltoallvPermutes(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		rng := rand.New(rand.NewSource(seed))
		clus := testCluster(8, 1)
		inputs := make([][][]byte, n)
		for s := range inputs {
			inputs[s] = make([][]byte, n)
			for d := range inputs[s] {
				buf := make([]byte, rng.Intn(512))
				rng.Read(buf)
				inputs[s][d] = buf
			}
		}
		outputs := make([][][]byte, n)
		Launch(clus, n, func(c *Comm) {
			out, err := c.Alltoallv(inputs[c.Rank()])
			if err != nil {
				t.Errorf("alltoallv: %v", err)
			}
			outputs[c.Rank()] = out
		})
		clus.Sim.Run()
		for d := 0; d < n; d++ {
			for s := 0; s < n; s++ {
				if string(outputs[d][s]) != string(inputs[s][d]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRevokeIdempotent(t *testing.T) {
	clus := testCluster(2, 1)
	Launch(clus, 2, func(c *Comm) {
		c.SetErrHandler(func(*Comm, error) {})
		if c.Rank() == 0 {
			if err := c.Revoke(); err != nil {
				t.Errorf("revoke 1: %v", err)
			}
			if err := c.Revoke(); err != nil {
				t.Errorf("revoke 2: %v", err)
			}
			if !c.Revoked() {
				t.Error("not revoked")
			}
		} else {
			_, err := c.Recv(0, 1)
			if !errors.Is(err, ErrRevoked) {
				t.Errorf("recv err = %v", err)
			}
		}
	})
	clus.Sim.Run()
}

func TestShrinkOfShrunkenComm(t *testing.T) {
	// Two failures handled by two successive shrinks.
	clus := testCluster(4, 2)
	n := 6
	finalSizes := make(chan int, n)
	w := Launch(clus, n, func(c *Comm) {
		c.SetErrHandler(func(*Comm, error) {})
		if c.Rank() >= 4 {
			c.Proc().Sleep(time.Hour)
			return
		}
		c.Proc().Sleep(2 * time.Second) // both kills done
		s1, err := c.Shrink()
		if err != nil {
			t.Errorf("shrink 1: %v", err)
			return
		}
		s2, err := s1.Shrink()
		if err != nil {
			t.Errorf("shrink 2: %v", err)
			return
		}
		if err := s2.Barrier(); err != nil {
			t.Errorf("barrier on doubly-shrunken comm: %v", err)
			return
		}
		finalSizes <- s2.Size()
	})
	clus.Sim.After(500*time.Millisecond, func() { w.Kill(4) })
	clus.Sim.After(time.Second, func() { w.Kill(5) })
	clus.Sim.Run()
	close(finalSizes)
	count := 0
	for s := range finalSizes {
		count++
		if s != 4 {
			t.Fatalf("final size = %d, want 4", s)
		}
	}
	if count != 4 {
		t.Fatalf("%d ranks completed", count)
	}
}

func TestAgreeOnRevokedComm(t *testing.T) {
	// ULFM: Agree must work on a revoked communicator.
	clus := testCluster(2, 1)
	results := make(chan int, 2)
	Launch(clus, 2, func(c *Comm) {
		c.SetErrHandler(func(*Comm, error) {})
		if c.Rank() == 0 {
			_ = c.Revoke()
		} else {
			c.Proc().Sleep(time.Second)
		}
		v, err := c.Agree(0b11)
		if err != nil {
			t.Errorf("agree on revoked comm: %v", err)
			return
		}
		results <- v
	})
	clus.Sim.Run()
	close(results)
	n := 0
	for v := range results {
		n++
		if v != 0b11 {
			t.Fatalf("agree = %b", v)
		}
	}
	if n != 2 {
		t.Fatalf("%d ranks agreed", n)
	}
}
