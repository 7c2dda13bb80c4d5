package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// The extent-backed FS against the flat store it replaced: a reference model
// that keeps every file as one []byte, driven by the same operation script.
// A script is a byte string (so the fuzzer can mutate it); each operation
// consumes a few bytes of it. An append-run moves a file's suffix onto another
// file (or onto itself) by reference, as the copier drains a stream; files then
// share extents. An append-shared hands a file caller pieces, as a checkpoint
// commit does, and the caller then writes into the pieces' spare capacity and
// over the short ones, which the file must have copied. After every operation every file must read back identical —
// bytes, Size, Exists, errors — and at the end (and at every "list"
// operation) so must the whole namespace: List and TotalBytes too.

// modelLens are the append and write lengths a script picks from: nothing,
// tens of bytes (what coalesces into the tail extent), and lengths around and
// beyond ShareMin (what starts an extent of its own).
var modelLens = []int{0, 1, 7, 25, 100, 1000, ShareMin/2 - 1, ShareMin / 2, ShareMin - 1, ShareMin, ShareMin + 1, 2*ShareMin + 3, 13000}

// modelMaxFile bounds what an append-run may grow a file to: appending a file
// onto itself doubles it.
const modelMaxFile = 1 << 15

type fsModel struct {
	t    *testing.T
	fs   *FS
	ref  map[string][]byte
	fill byte // running content counter: no two writes store the same bytes
	// held are earlier read results with what they held when handed out: a
	// later Truncate + Append on the file must not show through them.
	held []heldRead
	// lent are the long pieces files hold by reference, with what they held
	// when appended: nothing the FS does may write them.
	lent []heldRead
}

type heldRead struct {
	path      string
	got, want []byte
}

// edges returns the offsets worth aiming a Truncate or a ReadFrom at: every
// extent edge of the file and its neighbours, the middle, the ends, and two
// offsets outside the file.
func (m *fsModel) edges(path string) []int {
	out := []int{-1, 0, 1, len(m.ref[path]) / 2, len(m.ref[path]) - 1, len(m.ref[path]), len(m.ref[path]) + 1}
	if f := m.fs.files[path]; f != nil {
		off := 0
		for _, e := range f.ext {
			off += len(e)
			out = append(out, off-1, off, off+1)
		}
	}
	return out
}

func (m *fsModel) data(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		m.fill++
		out[i] = m.fill
	}
	return out
}

// checkFile compares one path of the FS with the model.
func (m *fsModel) checkFile(step int, op, path string) {
	m.t.Helper()
	want, ok := m.ref[path]
	if got := m.fs.exists("", path); got != ok {
		m.t.Fatalf("step %d after %s: Exists(%q) = %v, model says %v", step, op, path, got, ok)
	}
	if got := m.fs.size("", path); got != len(want) {
		m.t.Fatalf("step %d after %s: Size(%q) = %d, model says %d", step, op, path, got, len(want))
	}
	got, err := m.fs.Read(path)
	if (err != nil) != !ok || !bytes.Equal(got, want) {
		m.t.Fatalf("step %d after %s: Read(%q) = %d bytes, %v; model holds %d bytes (exists: %v)", step, op, path, len(got), err, len(want), ok)
	}
	if f := m.fs.files[path]; f != nil {
		sum := 0
		for _, e := range f.ext {
			if len(e) == 0 {
				m.t.Fatalf("step %d after %s: %q holds an empty extent", step, op, path)
			}
			sum += len(e)
		}
		if sum != f.size {
			m.t.Fatalf("step %d after %s: %q extents hold %d bytes, size says %d", step, op, path, sum, f.size)
		}
	}
}

// checkLent checks the extents an append-shared of pieces left in the file at
// path: a piece of at least ShareMin bytes is held by reference, as a view
// capped at its length, so no later append to any file can run into the
// caller's spare capacity; a shorter one is held as a copy.
func (m *fsModel) checkLent(step int, path string, pieces [][]byte) {
	m.t.Helper()
	for _, pc := range pieces {
		if len(pc) == 0 {
			continue
		}
		held := false
		for _, e := range m.fs.files[path].ext {
			if len(e) > 0 && &e[0] == &pc[0] {
				held = true
				if cap(e) != len(e) {
					m.t.Fatalf("step %d: %q holds a %d-byte piece by reference with %d bytes of the caller's spare capacity", step, path, len(e), cap(e)-len(e))
				}
			}
		}
		if held != (len(pc) >= ShareMin) {
			m.t.Fatalf("step %d: %q holds a %d-byte piece by reference: %v, want %v", step, path, len(pc), held, len(pc) >= ShareMin)
		}
	}
}

// checkAll compares the namespace: List and TotalBytes under several
// prefixes, then every file.
func (m *fsModel) checkAll(step int, op string) {
	m.t.Helper()
	for _, prefix := range []string{"", "d0/", "d1/f", "d2/f1", "x"} {
		var want []string
		total := 0
		for p, d := range m.ref {
			if strings.HasPrefix(p, prefix) {
				want = append(want, p)
				total += len(d)
			}
		}
		sort.Strings(want)
		if got := m.fs.List(prefix); !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
			m.t.Fatalf("step %d after %s: List(%q) = %v, model says %v", step, op, prefix, got, want)
		}
		if got := m.fs.TotalBytes(prefix); got != total {
			m.t.Fatalf("step %d after %s: TotalBytes(%q) = %d, model says %d", step, op, prefix, got, total)
		}
	}
	for p := range m.ref {
		m.checkFile(step, op, p)
	}
	if len(m.fs.files) != len(m.ref) {
		m.t.Fatalf("step %d after %s: %d files, model holds %d", step, op, len(m.fs.files), len(m.ref))
	}
}

// run interprets script against the FS and the model.
func (m *fsModel) run(script []byte) {
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	name := func() string { b := next(); return fmt.Sprintf("d%d/f%d", b%3, b/3%4) }
	for step := 0; len(script) > 0; step++ {
		var op string
		path := name()
		touched := []string{path}
		switch next() % 11 {
		case 0:
			op = "write"
			d := m.data(modelLens[next()%len(modelLens)])
			m.fs.Write(path, d)
			m.ref[path] = bytes.Clone(d)
			clear(d) // the FS copied it
		case 3:
			op = "append-shared"
			pieces := make([][]byte, 1+next()%3)
			var all []byte
			for i := range pieces {
				d := m.data(modelLens[next()%len(modelLens)])
				pieces[i] = append(make([]byte, 0, len(d)+next()%64), d...)
				all = append(all, d...)
			}
			m.fs.appendShared("", path, pieces)
			m.ref[path] = append(m.ref[path], all...)
			m.checkLent(step, path, pieces)
			for _, pc := range pieces {
				_ = append(pc, "spare capacity is the caller's"...)
				if len(pc) < ShareMin {
					clear(pc) // a short piece was copied: the caller may reuse it at once
				} else {
					m.lent = append(m.lent, heldRead{path, pc, bytes.Clone(pc)})
				}
			}
		case 1, 2:
			op = "append"
			d := m.data(modelLens[next()%len(modelLens)])
			m.fs.Append(path, d)
			m.ref[path] = append(m.ref[path], d...)
			clear(d)
		case 4:
			op = "truncate"
			e := m.edges(path)
			n := e[next()%len(e)]
			m.fs.truncate("", path, n)
			if d, ok := m.ref[path]; ok && n >= 0 && len(d) > n {
				m.ref[path] = d[:n]
			}
		case 5:
			op = "read-from"
			e := m.edges(path)
			off := e[next()%len(e)]
			got, err := m.fs.ReadFrom(path, off)
			d, ok := m.ref[path]
			wantErr := !ok || off < 0 || off > len(d)
			if (err != nil) != wantErr {
				m.t.Fatalf("step %d: ReadFrom(%q, %d) error %v, model says error: %v", step, path, off, err, wantErr)
			}
			if err == nil {
				if !bytes.Equal(got, d[off:]) {
					m.t.Fatalf("step %d: ReadFrom(%q, %d) differs from the model's %d bytes", step, path, off, len(d)-off)
				}
				m.held = append(m.held, heldRead{path, got, bytes.Clone(got)})
			}
		case 6:
			op = "rename"
			to := name() // the same name, one time in twelve: a no-op unless missing
			err := m.fs.rename("", path, to)
			d, ok := m.ref[path]
			if (err != nil) != !ok {
				m.t.Fatalf("step %d: Rename(%q, %q) = %v, model has the source: %v", step, path, to, err, ok)
			}
			if ok && to != path {
				m.ref[to] = d
				delete(m.ref, path)
			}
			touched = append(touched, to)
		case 9:
			op = "append-run"
			to := name() // the same name, one time in twelve: a file onto itself
			e := m.edges(path)
			off := e[next()%len(e)]
			r, err := m.fs.runFrom("", path, off)
			d, ok := m.ref[path]
			if wantErr := !ok || off < 0 || off > len(d); (err != nil) != wantErr {
				m.t.Fatalf("step %d: runFrom(%q, %d) error %v, model says error: %v", step, path, off, err, wantErr)
			}
			if err == nil {
				// Sharing doubles a file onto itself; keep files small.
				if room := modelMaxFile - len(m.ref[to]); r.Len() > room {
					r = r.prefix(max(room, 0))
				}
				m.fs.appendRun("", to, r)
				m.ref[to] = append(m.ref[to], d[off:off+r.Len()]...)
			}
			touched = append(touched, to)
		case 7, 8:
			op = "remove-prefix"
			prefix := path[:len(path)-next()%3] // "d1/f2", "d1/f", "d1/"
			want := 0
			for p := range m.ref {
				if strings.HasPrefix(p, prefix) {
					delete(m.ref, p)
					want++
				}
			}
			if got := m.fs.RemovePrefix(prefix); got != want {
				m.t.Fatalf("step %d: RemovePrefix(%q) = %d, model removed %d", step, prefix, got, want)
			}
			m.checkAll(step, op)
		default:
			op = "list" // also what makes the name index fresh for the operations after it
			m.checkAll(step, op)
		}
		// Files share extents, so an operation on one file may reach another.
		for _, p := range touched {
			m.checkFile(step, op, p)
		}
		for p := range m.ref {
			m.checkFile(step, op, p)
		}
		for _, l := range m.lent {
			if !bytes.Equal(l.got, l.want) {
				m.t.Fatalf("step %d after %s: a piece lent to %q was written", step, op, l.path)
			}
		}
		// Nothing done since may show through a result handed out earlier;
		// the oldest is then written over, which must not reach its file.
		for _, h := range m.held {
			if !bytes.Equal(h.got, h.want) {
				m.t.Fatalf("step %d after %s: an earlier ReadFrom(%q) result changed under its caller", step, op, h.path)
			}
		}
		if len(m.held) > 4 {
			h := m.held[0]
			m.held = m.held[1:]
			for i := range h.got {
				h.got[i] ^= 0xff
			}
			_ = append(h.got, "spare capacity is the caller's too"...)
			m.checkFile(step, "writing over a read result", h.path)
		}
	}
	m.checkAll(-1, "the last step")
}

func runFSModel(t *testing.T, script []byte) {
	(&fsModel{t: t, fs: NewFS(), ref: make(map[string][]byte)}).run(script)
}

func TestFSModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 1200) // ~350 operations
		rng.Read(script)
		runFSModel(t, script)
	}
}

func FuzzFSModel(f *testing.F) {
	f.Add([]byte{})
	// d0/f0: append 25 B twice (coalesced), append 4097 B (own extent),
	// truncate inside the first extent, append again, read from an edge.
	f.Add([]byte{0, 1, 3, 0, 1, 3, 0, 1, 10, 0, 4, 2, 0, 1, 4, 0, 5, 7})
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{40, 200, 600} {
		script := make([]byte, n)
		rng.Read(script)
		f.Add(script)
	}
	// d0/f0: append 25 B (an extent with spare capacity), append its run from
	// offset 0 onto d0/f1, then append 7 B to d0/f1 and 7 B to d0/f0: the
	// second append lands where the first did unless the run's views are
	// capped.
	f.Add([]byte{0, 1, 3, 0, 9, 3, 1, 3, 1, 2, 0, 1, 2})
	// d0/f0: append-shared a 25-byte and a 13000-byte piece (copied, then
	// held), append-shared a 7-byte one, truncate inside the held piece, append
	// 7 B, append-run the file onto d0/f1 and append-shared there a 4096-byte
	// piece and a 1-byte one.
	f.Add([]byte{0, 3, 1, 3, 9, 12, 40, 0, 3, 0, 2, 5, 0, 4, 3, 0, 1, 2, 0, 9, 3, 1, 3, 3, 1, 9, 1, 1, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2048 {
			script = script[:2048]
		}
		runFSModel(t, script)
	})
}

// allocatedBytes returns what fn allocated, from the runtime's own counter.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// appendStream builds a stream of about total bytes from appends of size
// bytes each and returns its length.
func appendStream(fs *FS, total, size int) int {
	chunk := make([]byte, size)
	n := total / size
	for i := 0; i < n; i++ {
		fs.Append("stream", chunk)
	}
	return n * size
}

// appendFrames builds a stream of about total bytes from frames of size bytes
// each, appended as a checkpoint commit appends one: the pieces (17-byte
// header, payload), the payload one write-once buffer the file holds by
// reference. It returns the stream's length.
func appendFrames(fs *FS, total, size int) int {
	var hdr [17]byte
	payload := make([]byte, size-len(hdr))
	n := total / size
	for i := 0; i < n; i++ {
		hdr[0] = byte(i)
		fs.appendShared("", "stream", [][]byte{hdr[:], payload})
	}
	return n * size
}

// TestFSAppendCopiesOnce is the store's allocation gate: a file is a list of
// extents, so a growing stream is never re-copied. Built from frames of the
// size wc-data commits (100 records of 8 sixteen-byte pairs and a header),
// a 4 MB stream costs about its own size — it cost 5.4x when Append regrew
// one flat slice. Built from 256-byte appends (the fs_append_ns probe's
// shape), where appends coalesce into a tail extent of at most ShareMin
// bytes that does regrow, it costs 3.0x against that store's 5.03x. Moving
// the first of those streams to another file by run, as the copier drains
// one, copies no byte: what it allocates is two extent lists (0.4 %). Built
// as a checkpoint commit appends its frames, header and payload as pieces,
// it copies only the headers: per frame, a 24-byte extent and two
// extent-list slots (1.3 %, the one payload buffer included).
func TestFSAppendCopiesOnce(t *testing.T) {
	for _, tc := range []struct {
		size   int
		move   bool    // measure moving the built stream by run, not building it
		shared bool    // build the stream from (header, payload) pieces
		limit  float64 // allocated bytes per byte of stream
	}{
		{12817, false, false, 1.3},
		{256, false, false, 5.03},
		{12817, true, false, 0.01},
		{12817, false, true, 0.02},
	} {
		fs := NewFS()
		var stream int
		build := appendStream
		what := fmt.Sprintf("%d-byte appends", tc.size)
		if tc.shared {
			build, what = appendFrames, fmt.Sprintf("%d-byte frames as (header, payload) pieces", tc.size)
		}
		got := allocatedBytes(func() { stream = build(fs, 4<<20, tc.size) })
		if tc.move {
			what = "moving a stream of " + what + " by run"
			got = allocatedBytes(func() {
				r, _ := fs.runFrom("", "stream", 0)
				fs.appendRun("", "moved", r)
			})
		}
		ratio := float64(got) / float64(stream)
		t.Logf("%s: %d bytes allocated for a %d-byte stream (%.4fx)", what, got, stream, ratio)
		if ratio > tc.limit {
			t.Errorf("%s allocates %.4fx the stream, want at most %.2fx", what, ratio, tc.limit)
		}
	}
}

func BenchmarkFSAppendStream(b *testing.B) {
	for _, size := range []int{12817, 256} {
		b.Run(fmt.Sprintf("append=%dB", size), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(4 << 20)
			for i := 0; i < b.N; i++ {
				appendStream(NewFS(), 4<<20, size)
			}
		})
	}
}
