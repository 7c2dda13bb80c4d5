package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ftmrmpi/internal/vtime"
)

func TestFSBasics(t *testing.T) {
	fs := NewFS()
	fs.Write("a/b", []byte("hello"))
	fs.Append("a/b", []byte(" world"))
	data, err := fs.Read("a/b")
	if err != nil || string(data) != "hello world" {
		t.Fatalf("read = %q, %v", data, err)
	}
	if fs.size("", "a/b") != 11 || !fs.exists("", "a/b") {
		t.Fatal("size/exists wrong")
	}
	if _, err := fs.Read("missing"); err == nil {
		t.Fatal("read of missing file succeeded")
	}
	fs.Write("a/c", []byte("x"))
	fs.Write("b/d", []byte("y"))
	if got := fs.List("a/"); len(got) != 2 || got[0] != "a/b" || got[1] != "a/c" {
		t.Fatalf("list = %v", got)
	}
	if fs.TotalBytes("a/") != 12 {
		t.Fatalf("total = %d", fs.TotalBytes("a/"))
	}
	if n := fs.RemovePrefix("a/"); n != 2 {
		t.Fatalf("removed %d", n)
	}
	if fs.exists("", "a/b") {
		t.Fatal("file survived RemovePrefix")
	}
}

func TestFSReadReturnsCopy(t *testing.T) {
	fs := NewFS()
	fs.Write("f", []byte("abc"))
	data, _ := fs.Read("f")
	data[0] = 'z'
	again, _ := fs.Read("f")
	if string(again) != "abc" {
		t.Fatal("Read aliases internal buffer")
	}
}

func TestFSReadFrom(t *testing.T) {
	fs := NewFS()
	fs.Write("f", []byte("abcdef"))
	fs.Write("empty", nil)
	for _, tc := range []struct {
		name, path string
		off        int
		want       string
		wantErr    bool
	}{
		{"start", "f", 0, "abcdef", false},
		{"mid", "f", 2, "cdef", false},
		{"end is empty, not an error", "f", 6, "", false},
		{"past end", "f", 7, "", true},
		{"negative", "f", -1, "", true},
		{"empty file at 0", "empty", 0, "", false},
		{"empty file past end", "empty", 1, "", true},
		{"missing file", "missing", 0, "", true},
	} {
		got, err := fs.ReadFrom(tc.path, tc.off)
		if (err != nil) != tc.wantErr || string(got) != tc.want {
			t.Errorf("%s: ReadFrom(%q, %d) = %q, %v; want %q, error %v", tc.name, tc.path, tc.off, got, err, tc.want, tc.wantErr)
		}
	}
	// The suffix is a copy: neither writing through it nor growing it may
	// reach the stored bytes, and a rollback (Truncate, then Append) under a
	// result handed out earlier must not show through it.
	tail, _ := fs.ReadFrom("f", 2)
	tail[0] = 'Z'
	_ = append(tail[:1], "YYY"...)
	fs.truncate("", "f", 3)
	fs.Append("f", []byte("xyz"))
	if got, _ := fs.Read("f"); string(got) != "abcxyz" {
		t.Errorf("file = %q after writes through a ReadFrom result, want %q", got, "abcxyz")
	}
	if string(tail) != "ZYYY" {
		t.Errorf("earlier ReadFrom result = %q after Truncate+Append, want %q", tail, "ZYYY")
	}
}

// ReadFileInto copies the file over the caller's buffer: writing into what it
// returned, or appending to it, never reaches the stored bytes, whether the
// bytes landed in a roomy dst (no allocation, dst's own array) or in a fresh
// slice (dst nil). A dst too short for the file is left unwritten and
// replaced by one allocation of the file's size.
func TestReadFileIntoIsACopy(t *testing.T) {
	sim := vtime.NewSim()
	fs := NewFS()
	tier := NewTier("t", fs, vtime.NewBandwidth(sim, "bw", 1e9), time.Millisecond, "x:")
	want := []byte(strings.Repeat("0123456789", 1000))
	fs.Write("x:f", want[:5000])
	fs.Append("x:f", want[5000:]) // a second extent: the copy walks both
	sim.Spawn("p", func(p *vtime.Proc) {
		roomy := make([]byte, 3, 2*len(want))
		short := []byte(strings.Repeat("s", 100))
		for _, tc := range []struct {
			name   string
			dst    []byte
			allocs float64
		}{
			{"roomy dst", roomy, 0},
			{"nil dst", nil, 1},
			{"short dst", short[:10], 1},
		} {
			var got []byte
			allocs := testing.AllocsPerRun(10, func() {
				var err error
				if got, _, err = tier.ReadFileInto(p, "f", tc.dst); err != nil {
					t.Fatal(err)
				}
			})
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: read %d bytes that differ from the file's %d", tc.name, len(got), len(want))
			}
			if allocs != tc.allocs {
				t.Errorf("%s: %v allocations per read, want %v", tc.name, allocs, tc.allocs)
			}
			if inDst := tc.dst != nil && &got[0] == &tc.dst[:1][0]; inDst != (tc.allocs == 0) {
				t.Errorf("%s: read into dst's array = %v, want %v", tc.name, inDst, tc.allocs == 0)
			}
			for i := range got {
				got[i] = 'Z'
			}
			_ = append(got, "past the end"...)
			if stored, _ := fs.Read("x:f"); !bytes.Equal(stored, want) {
				t.Fatalf("%s: writing into the read's result changed the file", tc.name)
			}
		}
		if string(short) != strings.Repeat("s", 100) {
			t.Errorf("a dst too short for the file was written into: %q", short)
		}
	})
	sim.Run()
}

// TestTierOpsMakeNoPathString is the storage naming gate (make alloc-gate):
// a tier looks a file up by its prefix and the path in the tier, spelled in
// the namespace's scratch buffer, so an operation on a file that exists makes
// no path string; only a name entering the namespace is joined. The path is
// longer than the 32 bytes Go joins short strings in on the stack.
func TestTierOpsMakeNoPathString(t *testing.T) {
	sim := vtime.NewSim()
	fs := NewFS()
	tier := NewTier("local17", fs, vtime.NewBandwidth(sim, "bw", 1e9), 0, "local17:")
	const path = "ckpt/wordcount-observed/map/t000042"
	want := []byte("a frame")
	fs.Write(tier.Prefix+path, want)
	dst := make([]byte, 0, 64)
	sim.Spawn("p", func(p *vtime.Proc) {
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"Size", func() { tier.Size(path) }},
			{"Exists", func() { tier.Exists(path) }},
			{"Truncate", func() { tier.Truncate(path, len(want)) }},
			{"ReadFileInto", func() { tier.ReadFileInto(p, path, dst) }},
		} {
			if allocs := testing.AllocsPerRun(10, op.fn); allocs != 0 {
				t.Errorf("%s: %v allocations, want 0", op.name, allocs)
			}
		}
	})
	sim.Run()
	if got, _ := fs.Read(tier.Prefix + path); !bytes.Equal(got, want) {
		t.Fatalf("the file holds %q, want %q", got, want)
	}
}

func TestTierPeekFromObservesOutage(t *testing.T) {
	sim := vtime.NewSim()
	tier := NewTier("t", NewFS(), vtime.NewBandwidth(sim, "bw", 1e9), time.Millisecond, "x:")
	tier.Clock = sim.Now
	tier.Faults = NewInjector(FaultPolicy{
		Rules: []FaultRule{{ReadError: 1}}, // every charged read faults; PeekFrom must not
	})
	tier.Faults.AddOutage(OutageWindow{Begin: time.Second, End: 2 * time.Second})
	tier.FS.Write("x:f", []byte("abcdef"))
	var online, offline error
	var got []byte
	sim.Spawn("r", func(p *vtime.Proc) {
		got, online = tier.PeekFrom("f", 4)
		p.Sleep(1500 * time.Millisecond)
		_, offline = tier.PeekFrom("f", 4)
	})
	sim.Run()
	if online != nil || string(got) != "ef" {
		t.Fatalf("PeekFrom online = %q, %v", got, online)
	}
	if !errors.Is(offline, ErrTierOutage) || tier.Faults.Stats.OutageOps != 1 || tier.Faults.Stats.ReadErrors != 0 {
		t.Fatalf("PeekFrom in the outage window: err %v, stats %+v", offline, tier.Faults.Stats)
	}
}

func TestTierChargesLatencyAndBandwidth(t *testing.T) {
	sim := vtime.NewSim()
	bw := vtime.NewBandwidth(sim, "bw", 1000) // 1000 B/s
	tier := NewTier("t", NewFS(), bw, 10*time.Millisecond, "x:")
	var wrote time.Duration
	sim.Spawn("w", func(p *vtime.Proc) {
		wrote, _ = tier.WriteFile(p, "file", make([]byte, 500))
	})
	sim.Run()
	want := 10*time.Millisecond + 500*time.Millisecond
	if wrote < want-time.Millisecond || wrote > want+time.Millisecond {
		t.Fatalf("wrote charge = %v, want ~%v", wrote, want)
	}
	if !tier.Exists("file") || tier.Size("file") != 500 {
		t.Fatal("file not stored")
	}
}

func TestTierIOPSPoolQueues(t *testing.T) {
	// Two processes issuing 100 ops each on a 100-ops/s pool: ~2s total.
	sim := vtime.NewSim()
	bw := vtime.NewBandwidth(sim, "bw", 1e12)
	tier := NewTier("t", NewFS(), bw, time.Microsecond, "x:")
	tier.IOPS = vtime.NewBandwidth(sim, "iops", 100)
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		sim.Spawn("p", func(p *vtime.Proc) {
			tier.Charge(p, 100, 0)
			done[i] = p.Now()
		})
	}
	sim.Run()
	for i, d := range done {
		if d < 1900*time.Millisecond || d > 2100*time.Millisecond {
			t.Fatalf("proc %d done at %v, want ~2s", i, d)
		}
	}
}

func TestTierPrefixIsolation(t *testing.T) {
	fs := NewFS()
	sim := vtime.NewSim()
	bw := vtime.NewBandwidth(sim, "bw", 1e9)
	a := NewTier("a", fs, bw, 0, "a:")
	b := NewTier("b", fs, bw, 0, "b:")
	sim.Spawn("p", func(p *vtime.Proc) {
		a.WriteFile(p, "f", []byte("A"))
		b.WriteFile(p, "f", []byte("B"))
	})
	sim.Run()
	da, _ := a.Peek("f")
	db, _ := b.Peek("f")
	if string(da) != "A" || string(db) != "B" {
		t.Fatalf("tiers not isolated: %q %q", da, db)
	}
	if got := a.List(""); len(got) != 1 || got[0] != "f" {
		t.Fatalf("list = %v", got)
	}
}

func TestTierCopy(t *testing.T) {
	fs := NewFS()
	sim := vtime.NewSim()
	src := NewTier("s", fs, vtime.NewBandwidth(sim, "b1", 1e9), 0, "s:")
	dst := NewTier("d", fs, vtime.NewBandwidth(sim, "b2", 1e9), 0, "d:")
	sim.Spawn("p", func(p *vtime.Proc) {
		src.WriteFile(p, "f", []byte("payload"))
		if _, err := src.Copy(p, "f", dst, "g"); err != nil {
			t.Errorf("copy: %v", err)
		}
	})
	sim.Run()
	data, err := dst.Peek("g")
	if err != nil || string(data) != "payload" {
		t.Fatalf("copied = %q, %v", data, err)
	}
}

// Property: append sequences preserve content exactly.
func TestPropAppendPreservesContent(t *testing.T) {
	f := func(parts [][]byte) bool {
		fs := NewFS()
		var want []byte
		for _, p := range parts {
			fs.Append("f", p)
			want = append(want, p...)
		}
		if len(parts) == 0 {
			return true
		}
		got, err := fs.Read("f")
		return err == nil && string(got) == string(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteOverwriteShrinks(t *testing.T) {
	fs := NewFS()
	fs.Write("f", []byte("0123456789"))
	fs.Write("f", []byte("01234")) // truncating rewrite (output truncation path)
	data, _ := fs.Read("f")
	if string(data) != "01234" {
		t.Fatalf("got %q", data)
	}
}

func TestChargeZeroOps(t *testing.T) {
	sim := vtime.NewSim()
	tier := NewTier("t", NewFS(), vtime.NewBandwidth(sim, "b", 1e9), time.Second, "x:")
	var d time.Duration
	sim.Spawn("p", func(p *vtime.Proc) {
		d = tier.Charge(p, 0, 0)
	})
	sim.Run()
	if d != 0 {
		t.Fatalf("zero charge took %v", d)
	}
}

// List answers from a sorted name index that only namespace changes
// invalidate: after every kind of change it must agree with a scan of the
// file map, whatever was listed (and so cached) before.
func TestFSListTracksNamespaceChanges(t *testing.T) {
	fs := NewFS()
	rng := rand.New(rand.NewSource(3))
	name := func() string { return fmt.Sprintf("d%d/f%02d", rng.Intn(4), rng.Intn(30)) }
	check := func(step int, op string) {
		t.Helper()
		for _, prefix := range []string{"", "d1/", "d2/f1", "d9/", "e"} {
			var want []string
			for p := range fs.files {
				if strings.HasPrefix(p, prefix) {
					want = append(want, p)
				}
			}
			sort.Strings(want)
			got := fs.List(prefix)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d after %s: List(%q) = %v, want %v", step, op, prefix, got, want)
			}
			if len(got) > 0 {
				got[0] = "caller-owned" // the result must not alias the index
			}
		}
	}
	for step := 0; step < 400; step++ {
		var op string
		// check listed last, so the index is fresh here: an operation that
		// removes nothing must leave it so, and the next List must not
		// re-sort the namespace for it.
		keepsIndex := false
		switch rng.Intn(7) {
		case 0:
			op = "write"
			fs.Write(name(), []byte("w"))
		case 1:
			op = "append"
			fs.Append(name(), []byte("a"))
		case 2:
			op = "remove-prefix of one path"
			fs.RemovePrefix(name())
			keepsIndex = true
		case 3:
			op = "rename"
			_ = fs.rename("", name(), name())
		case 4:
			op = "remove-prefix"
			fs.RemovePrefix(fmt.Sprintf("d%d/f1", rng.Intn(4)))
			keepsIndex = true // the prefix's range is cut out of the index
		case 5:
			op = "remove-prefix of an absent prefix"
			if n := fs.RemovePrefix("d1/g"); n != 0 {
				t.Fatalf("step %d: RemovePrefix of an absent prefix removed %d files", step, n)
			}
			keepsIndex = true
		default:
			op = "truncate"
			fs.truncate("", name(), 0)
			keepsIndex = true
		}
		if keepsIndex && fs.names == nil {
			t.Fatalf("step %d: %s made the name index stale", step, op)
		}
		check(step, op)
	}
}
