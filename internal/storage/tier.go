package storage

import (
	"time"

	"ftmrmpi/internal/vtime"
)

// Tier couples a file namespace with a cost model. Reads and writes charge
// a per-operation latency (serialized: n ops cost n×latency to the calling
// process) plus bytes against a processor-sharing bandwidth resource. The
// bandwidth resource may be shared across many tiers' callers (the PFS) or
// private to a node (local disk).
type Tier struct {
	Name  string
	FS    *FS
	BW    *vtime.Bandwidth
	OpLat time.Duration
	// IOPS, when set, is a shared operations-per-second pool: concurrent
	// clients queue on it, which is what makes many small I/O operations
	// against a shared file system so expensive (paper §4.1.3). Without a
	// pool, operations cost OpLat each, serialized per caller.
	IOPS   *vtime.Bandwidth
	Prefix string // namespace prefix of every path in the tier
	// Faults, when non-nil, injects seeded storage faults (torn writes, bit
	// flips, transient read errors, whole-tier outages) into the charged
	// operations. Uncosted metadata helpers (Exists, Size, List, ...) are
	// never faulted; Peek is charge- and per-path-fault-exempt but DOES
	// observe outage windows (see Peek).
	Faults *Injector
	// Clock, when set, supplies the current virtual time to operations that
	// have no *vtime.Proc in hand (Peek). Cluster construction wires it to
	// the simulator; without it Peek cannot observe outage windows.
	Clock func() time.Duration
}

// NewTier creates a tier over fs with the given bandwidth resource,
// per-operation latency, and path prefix.
func NewTier(name string, fs *FS, bw *vtime.Bandwidth, opLat time.Duration, prefix string) *Tier {
	return &Tier{Name: name, FS: fs, BW: bw, OpLat: opLat, Prefix: prefix}
}

// outage reports whether the tier is inside an outage window at the calling
// process's current virtual time. Checked before any fault-rule roll so
// outage windows never perturb the seeded per-path fault sequences.
func (t *Tier) outage(p *vtime.Proc) bool {
	if t.Faults == nil {
		return false
	}
	if _, active := t.Faults.OutageUntil(p.Now()); active {
		t.Faults.Stats.OutageOps++
		return true
	}
	return false
}

// AwaitOnline blocks the calling process until any active outage window on
// this tier ends. A no-op on a healthy tier, so callers can retry
// unconditionally after an ErrTierOutage.
func (t *Tier) AwaitOnline(p *vtime.Proc) {
	if t.Faults == nil {
		return
	}
	if end, active := t.Faults.OutageUntil(p.Now()); active {
		p.Sleep(end - p.Now())
	}
}

// Charge bills the calling process for ops operations moving bytes bytes,
// without touching the namespace. It returns the virtual time spent, which
// callers accumulate as I/O-wait.
func (t *Tier) Charge(p *vtime.Proc, ops int, bytes int) time.Duration {
	start := p.Now()
	if ops > 0 {
		// One request latency per call, then the operations drain through
		// the shared IOPS pool (queueing under contention).
		p.Sleep(t.OpLat)
		if t.IOPS != nil {
			t.IOPS.Acquire(p, float64(ops))
		} else if ops > 1 {
			p.Sleep(time.Duration(ops-1) * t.OpLat)
		}
	}
	if bytes > 0 {
		t.BW.Acquire(p, float64(bytes))
	}
	return p.Now() - start
}

// WriteFile writes data to path as a single operation, charging latency and
// bandwidth, and returns the I/O-wait incurred. Under fault injection the
// stored file may be a torn prefix (reported via ErrTornWrite), carry a
// silent bit flip, or cost a latency spike; either way the returned
// duration was genuinely spent.
func (t *Tier) WriteFile(p *vtime.Proc, path string, data []byte) (time.Duration, error) {
	if t.outage(p) {
		return t.Charge(p, 1, 0), ErrTierOutage
	}
	w := t.vetWrite(p, path, len(data))
	data = w.onBytes(data)
	d := w.delay + t.Charge(p, 1, len(data))
	t.FS.write(t.Prefix, path, data)
	return d, w.err
}

// AppendFile appends data to path, charged as ops operations (ops models
// how many distinct small writes produced this batch of data). Under fault
// injection the appended bytes may be a torn prefix (reported via
// ErrTornWrite) or carry a silent bit flip.
func (t *Tier) AppendFile(p *vtime.Proc, path string, data []byte, ops int) (time.Duration, error) {
	if t.outage(p) {
		return t.Charge(p, 1, 0), ErrTierOutage
	}
	w := t.vetWrite(p, path, len(data))
	data = w.onBytes(data)
	d := w.delay + t.Charge(p, ops, len(data))
	t.FS.append(t.Prefix, path, data)
	return d, w.err
}

// AppendRun is AppendFile of a run taken with PeekRun: path then shares the
// run's extents, and no byte is copied unless a bit flip lands in one. Its
// charges, faults and stored bytes are AppendFile's for the same bytes.
func (t *Tier) AppendRun(p *vtime.Proc, path string, r Run, ops int) (time.Duration, error) {
	if t.outage(p) {
		return t.Charge(p, 1, 0), ErrTierOutage
	}
	w := t.vetWrite(p, path, r.Len())
	r = w.onRun(r)
	d := w.delay + t.Charge(p, ops, r.Len())
	t.FS.appendRun(t.Prefix, path, r)
	return d, w.err
}

// AppendShared is AppendFile of the concatenation of pieces, which path then
// holds by reference where that saves a copy: each piece of at least
// ShareMin bytes becomes an extent of its own, a view capped at its length,
// and a shorter piece is copied, so the caller may reuse it at once. The
// caller never writes below a long piece's length again — a write-once buffer
// such as a kvbuf.Log block or a kvbuf.KV — and may go on appending past it.
// Its charges, faults and stored bytes are AppendFile's for the same bytes: a
// torn write keeps a prefix, and a bit flip lands in a copy of the one piece
// it hits, so the caller's pieces are never written.
func (t *Tier) AppendShared(p *vtime.Proc, path string, pieces [][]byte, ops int) (time.Duration, error) {
	if t.outage(p) {
		return t.Charge(p, 1, 0), ErrTierOutage
	}
	n := 0
	for _, e := range pieces {
		n += len(e)
	}
	w := t.vetWrite(p, path, n)
	if w.err != nil || w.flip { // only a fault needs the pieces as a run
		r := w.onRun(runOf(pieces))
		pieces, n = r.ext, r.Len()
	}
	d := w.delay + t.Charge(p, ops, n)
	t.FS.appendShared(t.Prefix, path, pieces)
	return d, w.err
}

// vetWrite rolls the injector's verdict on a write of n bytes to path and
// sleeps its latency spike. A tier without an injector never faults.
func (t *Tier) vetWrite(p *vtime.Proc, path string, n int) writeFault {
	if t.Faults == nil {
		return writeFault{}
	}
	w := t.Faults.onWrite(path, n)
	if w.delay > 0 {
		p.Sleep(w.delay)
	}
	return w
}

// ReadFile reads path into a fresh slice: ReadFileInto with no buffer.
func (t *Tier) ReadFile(p *vtime.Proc, path string) ([]byte, time.Duration, error) {
	return t.ReadFileInto(p, path, nil)
}

// ReadFileInto reads path, charging one operation plus bandwidth for its
// size. The file is copied over dst[:0], which is returned; only a dst too
// short for the file is replaced, by one allocation of the file's size. The
// result is still a copy: writing into it never reaches the stored bytes.
// Under fault injection it may fail with a transient ErrReadFault; a retry
// of the same path succeeds (and is charged again).
func (t *Tier) ReadFileInto(p *vtime.Proc, path string, dst []byte) ([]byte, time.Duration, error) {
	if t.outage(p) {
		return nil, t.Charge(p, 1, 0), ErrTierOutage
	}
	var spike time.Duration
	if t.Faults != nil {
		delay, err := t.Faults.onRead(path)
		if delay > 0 {
			p.Sleep(delay)
			spike = delay
		}
		if err != nil {
			return nil, spike + t.Charge(p, 1, 0), err
		}
	}
	data, err := t.FS.readInto(t.Prefix, path, dst)
	if err != nil {
		return nil, spike + t.Charge(p, 1, 0), err
	}
	d := spike + t.Charge(p, 1, len(data))
	return data, d, nil
}

// Exists reports whether path exists in this tier (no cost: metadata cached).
func (t *Tier) Exists(path string) bool { return t.FS.exists(t.Prefix, path) }

// Peek returns a file's contents without charging any cost. Callers that
// model a non-standard access pattern read with Peek and account the cost
// explicitly via Charge. Peek is deliberately exempt from the per-path fault
// rules (it is a repair/inspection primitive: quarantine and the copier must
// be able to examine exactly what landed, and injecting transient faults here
// would double-fault hardened callers that already rolled on the charged
// read) — but it is NOT exempt from whole-tier outages: an offline tier's
// contents are unreachable by any path, so Peek fails with ErrTierOutage
// while a window is active (when the tier has a Clock to observe time with).
func (t *Tier) Peek(path string) ([]byte, error) { return t.PeekFrom(path, 0) }

// PeekFrom is Peek of the file's suffix from byte offset off (see
// FS.ReadFrom), a copy the caller owns. Same outage check, same fault
// exemption.
func (t *Tier) PeekFrom(path string, off int) ([]byte, error) {
	r, err := t.PeekRun(path, off)
	return r.bytes(), err
}

// PeekRun is PeekFrom as a Run, no byte copied: what a caller that already
// holds the first off bytes — the copier draining a growing checkpoint stream
// — takes to append to another tier with AppendRun.
func (t *Tier) PeekRun(path string, off int) (Run, error) {
	if t.Faults != nil && t.Clock != nil {
		if _, active := t.Faults.OutageUntil(t.Clock()); active {
			t.Faults.Stats.OutageOps++
			return Run{}, ErrTierOutage
		}
	}
	return t.FS.runFrom(t.Prefix, path, off)
}

// Size returns the size of path (no cost).
func (t *Tier) Size(path string) int { return t.FS.size(t.Prefix, path) }

// List returns the paths (with the tier prefix stripped) under prefix.
func (t *Tier) List(prefix string) []string {
	full := t.FS.List(t.Prefix + prefix)
	out := make([]string, len(full))
	for i, f := range full {
		out[i] = f[len(t.Prefix):]
	}
	return out
}

// Rename atomically moves old to new within this tier, charged as one
// metadata operation. Never faulted: rename is the atomicity primitive
// commit protocols are built on.
func (t *Tier) Rename(p *vtime.Proc, old, new string) (time.Duration, error) {
	d := t.Charge(p, 1, 0)
	return d, t.FS.rename(t.Prefix, old, new)
}

// Truncate shortens path to n bytes (no cost: a repair helper — callers
// that model the I/O charge it explicitly).
func (t *Tier) Truncate(path string, n int) { t.FS.truncate(t.Prefix, path, n) }

// RemovePrefix deletes all files under prefix (no cost).
func (t *Tier) RemovePrefix(prefix string) int { return t.FS.RemovePrefix(t.Prefix + prefix) }

// Copy reads src from this tier and writes it to dst on another tier,
// charging both sides to the calling process. It returns the total I/O-wait.
func (t *Tier) Copy(p *vtime.Proc, src string, dst *Tier, dstPath string) (time.Duration, error) {
	data, d1, err := t.ReadFile(p, src)
	if err != nil {
		return d1, err
	}
	d2, err := dst.WriteFile(p, dstPath, data)
	return d1 + d2, err
}
