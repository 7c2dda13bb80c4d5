package mpi

import (
	"bytes"
	"testing"
)

// TestSendMirrorSharesFlowID pins what flow validation relies on in a
// replicated run: a tracked send and its mirror to a second receiver carry
// the same flow id and identical bytes.
func TestSendMirrorSharesFlowID(t *testing.T) {
	clus := testCluster(3, 1)
	payload := []byte("bundle-bytes")
	var ids []uint64
	var bufs [][]byte
	Launch(clus, 3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			id, err := c.SendTracked(1, 9, payload)
			if err != nil {
				t.Errorf("tracked send: %v", err)
				return
			}
			if id == 0 {
				t.Error("tracked send returned flow id 0")
			}
			if err := c.SendMirror(2, 9, payload, id); err != nil {
				t.Errorf("mirror send: %v", err)
			}
		case 1, 2:
			m, err := c.Recv(0, 9)
			if err != nil {
				t.Errorf("rank %d recv: %v", c.Rank(), err)
				return
			}
			ids = append(ids, m.id)
			bufs = append(bufs, m.Data)
		}
	})
	clus.Sim.Run()
	if len(ids) != 2 {
		t.Fatalf("got %d deliveries, want 2", len(ids))
	}
	if ids[0] == 0 || ids[0] != ids[1] {
		t.Fatalf("flow ids differ: %d vs %d", ids[0], ids[1])
	}
	if !bytes.Equal(bufs[0], bufs[1]) || !bytes.Equal(bufs[0], payload) {
		t.Fatal("mirror delivered different bytes")
	}
}

// TestFlowIDsAreWorldUnique sends from several ranks concurrently and checks
// no two tracked sends ever share a flow id — what lets the trace pair every
// recv.end with exactly one send.end.
func TestFlowIDsAreWorldUnique(t *testing.T) {
	clus := testCluster(4, 1)
	const per = 8
	seen := make(map[uint64]int)
	Launch(clus, 4, func(c *Comm) {
		n := c.Size()
		if c.Rank() == 0 {
			for i := 0; i < per*(n-1); i++ {
				m, err := c.Recv(AnySource, 5)
				if err != nil {
					t.Errorf("recv: %v", err)
					return
				}
				seen[m.id]++
			}
			return
		}
		for i := 0; i < per; i++ {
			if _, err := c.SendTracked(0, 5, []byte{byte(i)}); err != nil {
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
