// Package storage provides the simulated storage subsystem: an in-memory
// file namespace shared by all storage tiers, and cost-charging tiers that
// model a GPFS-like shared parallel file system and node-local disks.
//
// Files hold real bytes (inputs, intermediate data, checkpoints, outputs all
// round-trip through here), while read/write time is charged to the owning
// tier's bandwidth resource plus a per-operation latency — which is what
// makes many small I/O operations expensive, exactly the effect the paper's
// checkpoint-location experiments (§4.1.3) depend on.
//
// Every tier lives in one FS, so stored bytes move between files by
// reference: a Run is a file's suffix as views of its extents, and a file a
// run is appended to shares them (the copier's drain of a checkpoint stream
// from the local disk to the PFS copies no byte). Bytes may also enter a file
// by reference, from a caller that never writes them again (Tier.AppendShared:
// a checkpoint frame's payload). Whatever leaves the package is a copy, also
// when the caller lends the buffer it lands in (Tier.ReadFileInto): the bytes
// are copied over it, so writing into the result never reaches the file.
package storage

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// FS is an in-memory file namespace. It is single-threaded: every FS belongs
// to one simulation, whose processes the scheduler runs one at a time, so no
// two of its operations ever overlap. Sharing one FS between goroutines that
// are not processes of one simulation is a race.
type FS struct {
	files map[string]*file
	// names is the sorted index of every path, which List answers from by
	// binary search. It is nil when stale: only a change of the namespace (a
	// path appearing or disappearing) invalidates it, and the next List
	// rebuilds it, so W ranks listing an unchanging input directory sort the
	// namespace once, not W times.
	names []string
	// key is the scratch buffer a tier's path is spelled in, after the
	// tier's prefix, to look the file up: a map index by string(key) makes
	// no string, so an operation on a file makes none either.
	key []byte
}

// file is one file's contents as a list of extents: an append copies its data
// into the file once and never moves a byte the file already holds, so a
// stream built from n appends costs the host n copies of one append each, not
// the ~4 copies of the whole stream that regrowing one flat slice did. No
// extent is empty.
//
// Files may share extents on one invariant: bytes below an extent's length
// are never written after they are stored. append writes only past the last
// extent's length (into its spare capacity, or a new extent), truncate caps
// the extent it cuts, and a bit flip lands in a copy. A Run's views are
// capped at their lengths too, so once a file holds another's extents,
// neither file's later appends or truncates can reach the other's bytes.
//
// The same rules let an extent be a caller's bytes (appendShared): a view
// capped at its length, which the file never writes into, of bytes the caller
// never writes again. Only pieces of at least ShareMin bytes are taken so:
// the file never coalesces into an extent that long, and a shorter piece is
// copied as append copies it.
type file struct {
	ext  [][]byte
	size int
}

// ShareMin is the one threshold between copying bytes and holding them by
// reference: a piece of at least ShareMin bytes is kept as a view, a shorter
// one copied, by a file (appendShared) and by a kvbuf.KV assembled from
// received runs (KV.AppendRun). It also bounds the one place stored bytes may
// still move: an append that leaves the file's last extent within ShareMin bytes is coalesced into it
// (Go's own slice growth, so at most ShareMin bytes are re-copied), which
// keeps a file made of tens-of-bytes appends from paying a slice header, a
// size-class round-up and a malloc per append. Chosen by measuring 0 (an
// extent per append) / 4 KiB / 32 KiB: alloc_mb on wc-data 486.4 / 486.6 /
// 528.7 (at 32 KiB its 13 KB frames coalesce in pairs and are copied twice);
// a 4 MB stream of 25-byte appends allocated 6.2x / 3.1x / 4.7x its size
// (5.0x as one flat slice); median peak_rss_mb of 7 runs 120.4 / 118.4 / 119.4
// on wc-scale and 74.9 / 71.4 / 72.0 on wc-observed (flat: 117.0 and 70.0),
// whose thousands of files end in 17- and 25-byte frames.
const ShareMin = 4096

// append copies data onto the end of the file.
func (f *file) append(data []byte) {
	if len(data) == 0 {
		return
	}
	f.size += len(data)
	if n := len(f.ext); n > 0 && len(f.ext[n-1])+len(data) <= ShareMin {
		f.ext[n-1] = append(f.ext[n-1], data...)
		return
	}
	f.ext = append(f.ext, bytes.Clone(data))
}

// truncate caps the file at n bytes, n < f.size. The extent the cut falls in
// is capped at its new length, so a later append can never write into the
// bytes dropped here: it allocates.
func (f *file) truncate(n int) {
	f.size = n
	keep, at := locate(f.ext, n) // the extents before keep stay whole
	if at > 0 {
		f.ext[keep] = f.ext[keep][:at:at]
		keep++
	}
	clear(f.ext[keep:])
	f.ext = f.ext[:keep]
}

// runFrom returns the bytes from off to the end, off <= f.size.
func (f *file) runFrom(off int) Run {
	if off == f.size {
		return Run{}
	}
	i, at := locate(f.ext, off)
	ext := make([][]byte, len(f.ext)-i)
	for k, e := range f.ext[i:] {
		ext[k] = e[:len(e):len(e)]
	}
	ext[0] = ext[0][at:]
	return Run{ext: ext, size: f.size - off}
}

// appendRun appends r to the file, which then shares r's extents.
func (f *file) appendRun(r Run) {
	f.ext = append(f.ext, r.ext...)
	f.size += r.size
}

// appendShared appends the concatenation of pieces: a piece of at least
// ShareMin bytes becomes an extent of its own, a view of it capped at its
// length; a shorter one is copied as append copies it.
func (f *file) appendShared(pieces [][]byte) {
	for _, e := range pieces {
		if len(e) < ShareMin {
			f.append(e)
			continue
		}
		f.ext = append(f.ext, e[:len(e):len(e)])
		f.size += len(e)
	}
}

// locate returns the extent of ext that holds byte off and off's offset in
// it; off must be below the extents' total length.
func locate(ext [][]byte, off int) (i, at int) {
	for ; off >= len(ext[i]); i++ {
		off -= len(ext[i])
	}
	return i, off
}

// Run is a suffix of a file as it stood when it was taken: views of the
// file's extents, each capped at its length, which neither file's later
// writes can reach (see file). A Run is immutable, and outside this package
// its bytes are reachable only as a copy: read from a file it is appended to.
type Run struct {
	ext  [][]byte
	size int
}

// Len returns the number of bytes in the run.
func (r Run) Len() int { return r.size }

// bytes returns a fresh copy of the run, nil when it is empty.
func (r Run) bytes() []byte { return copyInto(nil, r.ext, r.size) }

// copyInto copies the size bytes of ext over dst[:0] and returns the result,
// allocating only when dst has too little room: then it returns one fresh
// slice of exactly size bytes, which bytes.Join does not zero before filling.
// An empty ext yields dst[:0], nil for a nil dst.
func copyInto(dst []byte, ext [][]byte, size int) []byte {
	if cap(dst) < size {
		return bytes.Join(ext, nil)
	}
	dst = dst[:0]
	for _, e := range ext {
		dst = append(dst, e...)
	}
	return dst
}

// runOf returns the concatenation of pieces as a run: views of them capped at
// their lengths, the empty ones left out.
func runOf(pieces [][]byte) Run {
	var r Run
	for _, e := range pieces {
		if len(e) > 0 {
			r.ext = append(r.ext, e[:len(e):len(e)])
			r.size += len(e)
		}
	}
	return r
}

// prefix returns the run's first n bytes, n <= r.Len(): what a torn append of
// it leaves. The view the cut falls in is capped at the cut.
func (r Run) prefix(n int) Run {
	if n == 0 {
		return Run{}
	}
	i, at := locate(r.ext, n-1)
	ext := slices.Clone(r.ext[:i+1])
	ext[i] = ext[i][: at+1 : at+1]
	return Run{ext: ext, size: n}
}

// flip returns the run with bit bit of byte off inverted: the one extent it
// lands in is copied, the others stay shared.
func (r Run) flip(off int, bit uint) Run {
	i, at := locate(r.ext, off)
	ext := slices.Clone(r.ext)
	ext[i] = bytes.Clone(ext[i])
	ext[i][at] ^= 1 << bit
	return Run{ext: ext, size: r.size}
}

// NewFS returns an empty namespace.
func NewFS() *FS {
	return &FS{files: make(map[string]*file)}
}

// Write creates or replaces the file at path.
func (fs *FS) Write(path string, data []byte) { fs.write("", path, data) }

// Append appends data to the file at path, creating it if needed. The data is
// copied: the caller may reuse it at once.
func (fs *FS) Append(path string, data []byte) { fs.append("", path, data) }

// The file operations below name a file as a tier does, by its prefix and
// its path in the tier (prefix "" for a full path): the file at prefix+path,
// which is spelled out as a string only when it enters the namespace, as a
// new file or a rename's target.

// write creates or replaces the file at prefix+path.
func (fs *FS) write(prefix, path string, data []byte) {
	f := fs.open(prefix, path)
	*f = file{} // whoever holds its extents (a Run) keeps them
	f.append(data)
}

// append appends a copy of data to the file at prefix+path, creating it if
// needed.
func (fs *FS) append(prefix, path string, data []byte) {
	fs.open(prefix, path).append(data)
}

// appendRun appends r to the file at prefix+path, creating it if needed;
// the file shares r's extents.
func (fs *FS) appendRun(prefix, path string, r Run) {
	fs.open(prefix, path).appendRun(r)
}

// appendShared appends the concatenation of pieces to the file at
// prefix+path, creating it if needed; the file holds each piece of at least
// ShareMin bytes by reference (see file.appendShared).
func (fs *FS) appendShared(prefix, path string, pieces [][]byte) {
	fs.open(prefix, path).appendShared(pieces)
}

// at returns the file at prefix+path, nil when there is none.
func (fs *FS) at(prefix, path string) *file {
	if prefix == "" {
		return fs.files[path]
	}
	fs.key = append(append(fs.key[:0], prefix...), path...)
	return fs.files[string(fs.key)]
}

// open returns the file at prefix+path, creating an empty one if there is
// none.
func (fs *FS) open(prefix, path string) *file {
	f := fs.at(prefix, path)
	if f == nil {
		f = &file{}
		fs.files[prefix+path] = f
		fs.names = nil // a new path makes the name index stale
	}
	return f
}

// Read returns a copy of the file's contents.
func (fs *FS) Read(path string) ([]byte, error) { return fs.ReadFrom(path, 0) }

// ReadFrom returns a copy of the file's contents from byte offset off to its
// end; off equal to the file's length yields an empty result, an offset
// outside [0, length] is an error. The result never aliases the stored
// bytes: the caller owns it and may write or append to it, and the file's
// later writes never show through it.
func (fs *FS) ReadFrom(path string, off int) ([]byte, error) {
	r, err := fs.runFrom("", path, off)
	return r.bytes(), err
}

// runFrom is ReadFrom of the file at prefix+path as a Run: the same bounds
// and errors, no byte copied.
func (fs *FS) runFrom(prefix, path string, off int) (Run, error) {
	f := fs.at(prefix, path)
	if f == nil {
		return Run{}, fmt.Errorf("storage: %s%s: no such file", prefix, path)
	}
	if off < 0 || off > f.size {
		return Run{}, fmt.Errorf("storage: %s%s: offset %d outside file of %d bytes", prefix, path, off, f.size)
	}
	return f.runFrom(off), nil
}

// readInto copies the file at prefix+path over dst[:0] (see copyInto): a
// copy, as Read's is, into the caller's buffer when it has the room.
func (fs *FS) readInto(prefix, path string, dst []byte) ([]byte, error) {
	f := fs.at(prefix, path)
	if f == nil {
		return nil, fmt.Errorf("storage: %s%s: no such file", prefix, path)
	}
	return copyInto(dst, f.ext, f.size), nil
}

// exists reports whether the file at prefix+path exists.
func (fs *FS) exists(prefix, path string) bool {
	return fs.at(prefix, path) != nil
}

// size returns the size of the file at prefix+path, or 0 if it does not
// exist.
func (fs *FS) size(prefix, path string) int {
	if f := fs.at(prefix, path); f != nil {
		return f.size
	}
	return 0
}

// rename atomically moves prefix+oldPath to prefix+newPath, replacing any
// existing file there. Like POSIX rename(2) it either fully happens or not at
// all, which is what makes write-temp-then-rename commits crash-consistent,
// and renaming a file onto itself changes nothing.
func (fs *FS) rename(prefix, oldPath, newPath string) error {
	f := fs.at(prefix, oldPath)
	if f == nil {
		return fmt.Errorf("storage: rename %s%s: no such file", prefix, oldPath)
	}
	if oldPath == newPath {
		return nil
	}
	if prefix == "" {
		delete(fs.files, oldPath)
	} else {
		delete(fs.files, string(fs.key)) // at spelled prefix+oldPath in it
	}
	fs.files[prefix+newPath] = f
	fs.names = nil
	return nil
}

// truncate shortens the file at prefix+path to n bytes. A missing file or a
// size already within n is a no-op (truncation is a repair operation: it must
// be safe to apply to whatever state a failure left behind).
func (fs *FS) truncate(prefix, path string, n int) {
	if f := fs.at(prefix, path); f != nil && n >= 0 && f.size > n {
		f.truncate(n)
	}
}

// RemovePrefix deletes every file whose path starts with prefix and returns
// the number removed. A fresh name index holds those paths as one contiguous
// range, which is cut out of it; a stale one is no help, and every path is
// tested.
func (fs *FS) RemovePrefix(prefix string) int {
	if fs.names != nil {
		lo, hi := fs.prefixRange(prefix)
		for _, p := range fs.names[lo:hi] {
			delete(fs.files, p)
		}
		fs.names = slices.Delete(fs.names, lo, hi)
		return hi - lo
	}
	n := 0
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			delete(fs.files, p)
			n++
		}
	}
	return n
}

// prefixRange returns the range of the (fresh) name index that holds the
// paths starting with prefix: paths sharing a prefix are contiguous in sorted
// order.
func (fs *FS) prefixRange(prefix string) (lo, hi int) {
	lo = sort.SearchStrings(fs.names, prefix)
	hi = lo
	for hi < len(fs.names) && strings.HasPrefix(fs.names[hi], prefix) {
		hi++
	}
	return lo, hi
}

// List returns the sorted paths of all files with the given prefix.
func (fs *FS) List(prefix string) []string {
	if fs.names == nil {
		fs.names = make([]string, 0, len(fs.files))
		for p := range fs.files {
			fs.names = append(fs.names, p)
		}
		sort.Strings(fs.names)
	}
	lo, hi := fs.prefixRange(prefix)
	return append([]string(nil), fs.names[lo:hi]...)
}

// TotalBytes returns the sum of all file sizes under prefix. It counts logical
// bytes, not memory: an extent several files share counts once per file that
// holds it.
func (fs *FS) TotalBytes(prefix string) int {
	total := 0
	for p, f := range fs.files {
		if strings.HasPrefix(p, prefix) {
			total += f.size
		}
	}
	return total
}
