package storage

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ftmrmpi/internal/vtime"
)

func TestFSRenameDeleteTruncate(t *testing.T) {
	fs := NewFS()
	fs.Write("a", []byte("payload"))
	if err := fs.rename("", "a", "b"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if fs.exists("", "a") || !fs.exists("", "b") {
		t.Fatal("rename did not move the file")
	}
	// Rename replaces an existing destination atomically.
	fs.Write("c", []byte("old"))
	if err := fs.rename("", "b", "c"); err != nil {
		t.Fatalf("rename over existing: %v", err)
	}
	data, _ := fs.Read("c")
	if string(data) != "payload" {
		t.Fatalf("destination holds %q", data)
	}
	if err := fs.rename("", "missing", "x"); err == nil {
		t.Fatal("rename of missing file succeeded")
	}
	// Renaming a file onto itself keeps it; a missing one is still an error.
	if err := fs.rename("", "c", "c"); err != nil {
		t.Fatalf("rename onto itself: %v", err)
	}
	if data, _ = fs.Read("c"); string(data) != "payload" {
		t.Fatalf("after a rename onto itself the file holds %q", data)
	}
	if err := fs.rename("", "missing", "missing"); err == nil {
		t.Fatal("rename of a missing file onto itself succeeded")
	}
	if n := fs.RemovePrefix("c"); n != 1 {
		t.Fatalf("RemovePrefix removed %d files, want 1", n)
	}
	if n := fs.RemovePrefix("c"); n != 0 {
		t.Fatalf("a second RemovePrefix removed %d files", n)
	}
	fs.Write("t", []byte("0123456789"))
	fs.truncate("", "t", 4)
	data, _ = fs.Read("t")
	if string(data) != "0123" {
		t.Fatalf("truncated to %q", data)
	}
	fs.truncate("", "t", 100) // no-op: already shorter
	fs.truncate("", "missing", 0)
	fs.truncate("", "t", -1) // negative is a no-op
	if fs.size("", "t") != 4 {
		t.Fatalf("size after no-op truncates = %d", fs.size("", "t"))
	}
}

func TestTierRenameDelete(t *testing.T) {
	sim := vtime.NewSim()
	tier := NewTier("t", NewFS(), vtime.NewBandwidth(sim, "bw", 1e9), time.Millisecond, "x:")
	sim.Spawn("p", func(p *vtime.Proc) {
		if _, err := tier.WriteFile(p, "f", []byte("data")); err != nil {
			t.Errorf("write: %v", err)
		}
		d, err := tier.Rename(p, "f", "g")
		if err != nil || d <= 0 {
			t.Errorf("rename: d=%v err=%v", d, err)
		}
		if tier.Exists("f") || !tier.Exists("g") {
			t.Error("rename did not move within the tier namespace")
		}
		if n := tier.RemovePrefix("g"); n != 1 || tier.Exists("g") {
			t.Errorf("RemovePrefix removed %d files, want 1", n)
		}
	})
	sim.Run()
}

// faultTier builds a tier with an injector whose rule matches every path
// with the given probabilities.
func faultTier(sim *vtime.Sim, rule FaultRule, seed int64) *Tier {
	tier := NewTier("t", NewFS(), vtime.NewBandwidth(sim, "bw", 1e12), 0, "x:")
	tier.Faults = NewInjector(FaultPolicy{Seed: seed, Rules: []FaultRule{rule}})
	return tier
}

func TestInjectorTornWrite(t *testing.T) {
	sim := vtime.NewSim()
	tier := faultTier(sim, FaultRule{TornWrite: 1.0}, 1)
	payload := bytes.Repeat([]byte("x"), 100)
	sim.Spawn("p", func(p *vtime.Proc) {
		_, err := tier.WriteFile(p, "f", payload)
		if !errors.Is(err, ErrTornWrite) {
			t.Errorf("err = %v, want ErrTornWrite", err)
		}
		if tier.Size("f") >= len(payload) {
			t.Errorf("torn write stored %d bytes, want a strict prefix", tier.Size("f"))
		}
		// Sticky transient guarantee: the next op on the same path succeeds.
		if _, err := tier.WriteFile(p, "f", payload); err != nil {
			t.Errorf("retry after torn write failed: %v", err)
		}
		if tier.Size("f") != len(payload) {
			t.Errorf("retry stored %d bytes", tier.Size("f"))
		}
	})
	sim.Run()
	if tier.Faults.Stats.TornWrites != 1 {
		t.Fatalf("TornWrites = %d", tier.Faults.Stats.TornWrites)
	}
}

func TestInjectorBitFlipSilent(t *testing.T) {
	sim := vtime.NewSim()
	tier := faultTier(sim, FaultRule{BitFlip: 1.0}, 2)
	payload := bytes.Repeat([]byte{0}, 64)
	sim.Spawn("p", func(p *vtime.Proc) {
		if _, err := tier.WriteFile(p, "f", payload); err != nil {
			t.Errorf("bit flip must be silent, got %v", err)
		}
	})
	sim.Run()
	got, _ := tier.Peek("f")
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if got[i]&(1<<b) != payload[i]&(1<<b) {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits differ, want exactly 1", diff)
	}
	if tier.Faults.Stats.BitFlips != 1 {
		t.Fatalf("BitFlips = %d", tier.Faults.Stats.BitFlips)
	}
}

func TestInjectorTransientReadError(t *testing.T) {
	sim := vtime.NewSim()
	tier := faultTier(sim, FaultRule{ReadError: 1.0}, 3)
	sim.Spawn("p", func(p *vtime.Proc) {
		if _, err := tier.WriteFile(p, "f", []byte("data")); err != nil {
			t.Errorf("write: %v", err)
		}
		_, _, err := tier.ReadFile(p, "f")
		if !errors.Is(err, ErrReadFault) {
			t.Errorf("err = %v, want ErrReadFault", err)
		}
		data, _, err := tier.ReadFile(p, "f")
		if err != nil || string(data) != "data" {
			t.Errorf("retry: %q, %v", data, err)
		}
	})
	sim.Run()
}

func TestInjectorPrefixScoping(t *testing.T) {
	sim := vtime.NewSim()
	tier := NewTier("t", NewFS(), vtime.NewBandwidth(sim, "bw", 1e12), 0, "x:")
	tier.Faults = NewInjector(FaultPolicy{Seed: 4, Rules: []FaultRule{
		{Prefix: "ckpt/", TornWrite: 1.0},
	}})
	sim.Spawn("p", func(p *vtime.Proc) {
		if _, err := tier.WriteFile(p, "out/f", []byte("safe")); err != nil {
			t.Errorf("unmatched prefix faulted: %v", err)
		}
		if _, err := tier.WriteFile(p, "ckpt/f", []byte("faulty")); !errors.Is(err, ErrTornWrite) {
			t.Errorf("matched prefix not faulted: %v", err)
		}
	})
	sim.Run()
}

func TestInjectorDeterministicBySeed(t *testing.T) {
	run := func(seed int64) ([]byte, FaultStats) {
		sim := vtime.NewSim()
		tier := faultTier(sim, FaultRule{TornWrite: 0.3, BitFlip: 0.3, ReadError: 0.3}, seed)
		sim.Spawn("p", func(p *vtime.Proc) {
			for i := 0; i < 50; i++ {
				_, _ = tier.AppendFile(p, "f", bytes.Repeat([]byte{byte(i)}, 32), 1)
				_, _, _ = tier.ReadFile(p, "f")
			}
		})
		sim.Run()
		data, _ := tier.Peek("f")
		return data, tier.Faults.Stats
	}
	d1, s1 := run(42)
	d2, s2 := run(42)
	if !bytes.Equal(d1, d2) || s1 != s2 {
		t.Fatal("same seed produced different fault sequences")
	}
	d3, s3 := run(43)
	if bytes.Equal(d1, d3) && s1 == s3 {
		t.Fatal("different seeds produced identical fault sequences (suspicious)")
	}
}

// TestAppendRunFaultParity: the injector decides a write from its length
// alone, and AppendRun and AppendShared apply that decision to a run and to
// caller pieces as AppendFile applies it to the same bytes. A stream grows on
// a clean tier and is drained suffix by suffix onto three faulty tiers with
// the same policy — by run, by bytes, and by pieces (a 17-byte head and the
// rest, each with spare capacity behind it) — a failed attempt rolled back
// and retried as the copier does. Before each rollback a few bytes are
// appended behind the torn tail, which must not reach the stream the run
// shares extents with, nor the pieces; and no fault, a bit flip included,
// may write the pieces or their spare capacity.
func TestAppendRunFaultParity(t *testing.T) {
	rules := map[string]FaultRule{
		"torn":  {TornWrite: 1},
		"flip":  {BitFlip: 1},
		"spike": {TornWrite: 0.3, BitFlip: 0.3, WriteSpike: 0.5, SpikeDelay: time.Millisecond},
	}
	appends := []int{25, 7, 13000, 100, 4096, 25, 1, 9000, 3000, 17, 17}
	for name, rule := range rules {
		for seed := int64(1); seed <= 6; seed++ {
			sim := vtime.NewSim()
			fs := NewFS()
			tier := func(name string) *Tier {
				return NewTier(name, fs, vtime.NewBandwidth(sim, name, 1e9), time.Microsecond, name+":")
			}
			local, byRun, byBytes, byShared := tier("l"), tier("r"), tier("b"), tier("h")
			for _, faulty := range []*Tier{byRun, byBytes, byShared} {
				faulty.Faults = NewInjector(FaultPolicy{Seed: seed, Rules: []FaultRule{rule}})
			}
			var want []byte // what the local stream must hold
			sim.Spawn("copier", func(p *vtime.Proc) {
				have := 0
				for i, n := range appends {
					chunk := bytes.Repeat([]byte{byte(i + 1)}, n)
					local.AppendFile(p, "s", chunk, 1)
					want = append(want, chunk...)
					if i%3 == 2 {
						continue // the next drain spans two appends
					}
					run, _ := local.PeekRun("s", have)
					suffix, _ := local.PeekFrom("s", have)
					head := min(17, len(suffix))
					var pieces, lent [][]byte // lent: each piece through its spare capacity
					for _, part := range [][]byte{suffix[:head], suffix[head:]} {
						pc := append(make([]byte, 0, len(part)+8), part...)
						copy(pc[len(pc):cap(pc)], "spare!!!")
						pieces, lent = append(pieces, pc), append(lent, bytes.Clone(pc[:cap(pc)]))
					}
					intact := func() bool {
						for k, pc := range pieces {
							if !bytes.Equal(pc[:cap(pc)], lent[k]) {
								return false
							}
						}
						return true
					}
					for {
						pre, _ := byRun.Peek("s")
						dr, errR := byRun.AppendRun(p, "s", run, 1)
						db, errB := byBytes.AppendFile(p, "s", suffix, 1)
						dh, errH := byShared.AppendShared(p, "s", pieces, 1)
						if dr != db || errR != errB || dh != db || errH != errB {
							t.Errorf("%s seed %d drain %d: AppendRun = %v, %v; AppendShared = %v, %v; AppendFile = %v, %v", name, seed, i, dr, errR, dh, errH, db, errB)
						}
						if !intact() {
							t.Errorf("%s seed %d drain %d: AppendShared wrote its caller's pieces", name, seed, i)
						}
						if errR == nil {
							break
						}
						fs.Append("r:s", []byte("behind the torn tail"))
						fs.Append("h:s", []byte("behind the torn tail"))
						if got, _ := local.Peek("s"); !bytes.Equal(got, want) {
							t.Errorf("%s seed %d drain %d: an append behind a torn run changed its source", name, seed, i)
						}
						if !intact() {
							t.Errorf("%s seed %d drain %d: an append behind torn pieces changed them", name, seed, i)
						}
						for _, faulty := range []*Tier{byRun, byBytes, byShared} {
							faulty.Truncate("s", len(pre))
						}
						if got, _ := byRun.Peek("s"); !bytes.Equal(got, pre) {
							t.Errorf("%s seed %d drain %d: rolling a torn run back left %d bytes, want the %d before it", name, seed, i, len(got), len(pre))
						}
					}
					have = local.Size("s")
				}
			})
			sim.Run()
			gotRun, _ := byRun.Peek("s")
			gotBytes, _ := byBytes.Peek("s")
			gotShared, _ := byShared.Peek("s")
			gotLocal, _ := local.Peek("s")
			if !bytes.Equal(gotRun, gotBytes) || !bytes.Equal(gotShared, gotBytes) || len(gotRun) != len(want) {
				t.Errorf("%s seed %d: by run %d bytes, by pieces %d, by bytes %d, stream %d: the files differ", name, seed, len(gotRun), len(gotShared), len(gotBytes), len(want))
			}
			if !bytes.Equal(gotLocal, want) {
				t.Errorf("%s seed %d: a fault on a drained run changed the stream it shares extents with", name, seed)
			}
			sr, sb, sh := byRun.Faults.Stats, byBytes.Faults.Stats, byShared.Faults.Stats
			if sr != sb || sh != sb || sr.TornWrites+sr.BitFlips == 0 {
				t.Errorf("%s seed %d: FaultStats by run %+v, by pieces %+v, by bytes %+v (want equal, some faults)", name, seed, sr, sh, sb)
			}
			r, b, h := byRun.Faults.rng.Int63(), byBytes.Faults.rng.Int63(), byShared.Faults.rng.Int63()
			if r != b || h != b {
				t.Errorf("%s seed %d: the injectors' next draws differ: %d, %d and %d", name, seed, r, h, b)
			}
		}
	}
}

func TestInjectorNeverFaultsEmptyWrite(t *testing.T) {
	sim := vtime.NewSim()
	tier := faultTier(sim, FaultRule{TornWrite: 1.0, BitFlip: 1.0}, 5)
	sim.Spawn("p", func(p *vtime.Proc) {
		if _, err := tier.WriteFile(p, "f", nil); err != nil {
			t.Errorf("empty write faulted: %v", err)
		}
	})
	sim.Run()
}
