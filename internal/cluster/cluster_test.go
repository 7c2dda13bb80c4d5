package cluster

import (
	"testing"
	"time"

	"ftmrmpi/internal/vtime"
)

func TestPlacement(t *testing.T) {
	cfg := Default()
	cfg.Nodes = 4
	cfg.PPN = 8
	c := New(cfg)
	if c.Slots() != 32 {
		t.Fatalf("slots = %d", c.Slots())
	}
	if c.NodeOf(0).ID != 0 || c.NodeOf(7).ID != 0 || c.NodeOf(8).ID != 1 || c.NodeOf(31).ID != 3 {
		t.Fatal("block placement wrong")
	}
	if c.CoreOf(9) != c.Nodes[1].Cores[1] {
		t.Fatal("core mapping wrong")
	}
	if c.LocalOf(10) != c.Nodes[1].Local {
		t.Fatal("local disk mapping wrong")
	}
}

func TestTransferCost(t *testing.T) {
	cfg := Default()
	cfg.Nodes = 1
	cfg.PPN = 1
	cfg.NICLatency = 10 * time.Microsecond
	cfg.NICBandwidth = 1e6 // 1 MB/s
	c := New(cfg)
	got := c.TransferCost(1e6)
	want := 10*time.Microsecond + time.Second
	if got < want-time.Millisecond || got > want+time.Millisecond {
		t.Fatalf("cost = %v, want ~%v", got, want)
	}
}

func TestSharedPFSBandwidthContention(t *testing.T) {
	cfg := Default()
	cfg.Nodes = 2
	cfg.PPN = 1
	cfg.PFSBandwidth = 1000
	cfg.PFSOpLat = 0
	cfg.PFSIOPS = 0
	c := New(cfg)
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		c.Sim.Spawn("p", func(p *vtime.Proc) {
			c.PFS.Charge(p, 0, 1000)
			done[i] = p.Now()
		})
	}
	c.Sim.Run()
	// Two concurrent 1000-byte transfers on a 1000 B/s aggregate: ~2s each.
	for i, d := range done {
		if d < 1900*time.Millisecond || d > 2100*time.Millisecond {
			t.Fatalf("proc %d: %v, want ~2s", i, d)
		}
	}
}

func TestLocalDisksIndependent(t *testing.T) {
	cfg := Default()
	cfg.Nodes = 2
	cfg.PPN = 1
	cfg.LocalDiskBW = 1000
	cfg.LocalDiskOpLat = 0
	cfg.LocalDiskIOPS = 0
	c := New(cfg)
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		c.Sim.Spawn("p", func(p *vtime.Proc) {
			c.LocalOf(i).Charge(p, 0, 1000)
			done[i] = p.Now()
		})
	}
	c.Sim.Run()
	// Different nodes: no contention, ~1s each.
	for i, d := range done {
		if d < 900*time.Millisecond || d > 1100*time.Millisecond {
			t.Fatalf("proc %d: %v, want ~1s", i, d)
		}
	}
}
