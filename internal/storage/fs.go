// Package storage provides the simulated storage subsystem: an in-memory
// file namespace shared by all storage tiers, and cost-charging tiers that
// model a GPFS-like shared parallel file system and node-local disks.
//
// Files hold real bytes (inputs, intermediate data, checkpoints, outputs all
// round-trip through here), while read/write time is charged to the owning
// tier's bandwidth resource plus a per-operation latency — which is what
// makes many small I/O operations expensive, exactly the effect the paper's
// checkpoint-location experiments (§4.1.3) depend on.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// FS is an in-memory file namespace. It is safe for use from simulated
// processes (which never truly run concurrently) and from test goroutines.
type FS struct {
	mu    sync.Mutex
	files map[string][]byte
	// names is the sorted index of every path, which List answers from by
	// binary search. It is nil when stale: only a change of the namespace (a
	// path appearing or disappearing) invalidates it, and the next List
	// rebuilds it, so W ranks listing an unchanging input directory sort the
	// namespace once, not W times.
	names []string
}

// NewFS returns an empty namespace.
func NewFS() *FS {
	return &FS{files: make(map[string][]byte)}
}

// Write creates or replaces the file at path.
func (fs *FS) Write(path string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.put(path, append([]byte(nil), data...))
}

// Append appends data to the file at path, creating it if needed.
func (fs *FS) Append(path string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.put(path, append(fs.files[path], data...))
}

// put stores data at path; a path that is new makes the name index stale.
// Callers hold fs.mu.
func (fs *FS) put(path string, data []byte) {
	n := len(fs.files)
	fs.files[path] = data
	if len(fs.files) != n {
		fs.names = nil
	}
}

// Read returns a copy of the file's contents.
func (fs *FS) Read(path string) ([]byte, error) { return fs.ReadFrom(path, 0) }

// ReadFrom returns a copy of the file's contents from byte offset off to its
// end; off equal to the file's length yields an empty result, an offset
// outside [0, length] is an error. The result never aliases the stored
// bytes: the caller owns it and may write or append to it, and a later
// Truncate followed by an Append (how a torn append is rolled back and
// retried) rewrites the file's tail, which must not show through a result
// handed out earlier.
func (fs *FS) ReadFrom(path string, off int) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	data, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("storage: %s: no such file", path)
	}
	if off < 0 || off > len(data) {
		return nil, fmt.Errorf("storage: %s: offset %d outside file of %d bytes", path, off, len(data))
	}
	return append([]byte(nil), data[off:]...), nil
}

// Exists reports whether the file exists.
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// Size returns the file size, or 0 if it does not exist.
func (fs *FS) Size(path string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.files[path])
}

// Remove deletes the file if it exists.
func (fs *FS) Remove(path string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	delete(fs.files, path)
	fs.names = nil
}

// Delete removes the file, erroring if it does not exist (the strict form of
// Remove, for callers that must notice a missing file).
func (fs *FS) Delete(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; !ok {
		return fmt.Errorf("storage: %s: no such file", path)
	}
	delete(fs.files, path)
	fs.names = nil
	return nil
}

// Rename atomically moves oldPath to newPath, replacing any existing file at
// newPath. Like POSIX rename(2) it either fully happens or not at all, which
// is what makes write-temp-then-rename commits crash-consistent.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	data, ok := fs.files[oldPath]
	if !ok {
		return fmt.Errorf("storage: rename %s: no such file", oldPath)
	}
	fs.files[newPath] = data
	delete(fs.files, oldPath)
	fs.names = nil
	return nil
}

// Truncate shortens the file at path to n bytes. A missing file or a size
// already within n is a no-op (truncation is a repair operation: it must be
// safe to apply to whatever state a failure left behind).
func (fs *FS) Truncate(path string, n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if data, ok := fs.files[path]; ok && n >= 0 && len(data) > n {
		fs.files[path] = data[:n:n]
	}
}

// RemovePrefix deletes every file whose path starts with prefix and returns
// the number removed.
func (fs *FS) RemovePrefix(prefix string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			delete(fs.files, p)
			n++
		}
	}
	fs.names = nil
	return n
}

// List returns the sorted paths of all files with the given prefix.
func (fs *FS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.names == nil {
		fs.names = make([]string, 0, len(fs.files))
		for p := range fs.files {
			fs.names = append(fs.names, p)
		}
		sort.Strings(fs.names)
	}
	// Paths sharing a prefix are contiguous in sorted order.
	lo := sort.SearchStrings(fs.names, prefix)
	hi := lo
	for hi < len(fs.names) && strings.HasPrefix(fs.names[hi], prefix) {
		hi++
	}
	return append([]string(nil), fs.names[lo:hi]...)
}

// TotalBytes returns the sum of all file sizes under prefix.
func (fs *FS) TotalBytes(prefix string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	total := 0
	for p, d := range fs.files {
		if strings.HasPrefix(p, prefix) {
			total += len(d)
		}
	}
	return total
}
