// Package jsonl is the one versioned, damage-tolerant JSONL codec behind
// every line-oriented file the simulator writes (event traces, introspection
// snapshots). A file is one JSON object per line; the first line is a header
// naming the format and its schema version. Writers are buffered with a
// sticky error; the reader skips and counts damaged lines instead of failing,
// so a file cut short by a crash stays loadable, and hard-fails only on
// input it cannot stand behind: I/O failure, an oversized line, or a first
// line that is not this format's header at the schema this build writes.
//
// Each wire format (DESIGN.md §"Trace wire format v2") supplies only its
// name, its schema and a per-line decode function.
package jsonl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// maxLine caps one line (a snapshot of a 10k-rank world is a few MiB).
const maxLine = 16 * 1024 * 1024

// Format identifies one wire format: the header's "format" discriminator and
// the schema version this build writes, which is also the only one it reads.
type Format struct {
	Name   string // the header's "format" value, e.g. "ftmr-trace"
	Schema int    // the version written, and the one version Read accepts
}

// header is the first line of a file.
type header struct {
	Format string `json:"format"`
	Schema int    `json:"schema"`
}

// Writer is a buffered JSONL sink. The first write error is sticky — later
// writes are dropped — and is surfaced by Flush.
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewWriter starts a file of this format on w: the header line is written
// (buffered) immediately.
func (f Format) NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	s := &Writer{bw: bw, enc: json.NewEncoder(bw)}
	s.Write(header{Format: f.Name, Schema: f.Schema})
	return s
}

// Write appends one line, the JSON encoding of v.
func (s *Writer) Write(v any) {
	if s.err == nil {
		s.err = s.enc.Encode(v)
	}
}

// WriteLine appends one line the caller encoded itself: line is one JSON
// value holding no newline, and the newline is added here.
func (s *Writer) WriteLine(line []byte) {
	if s.err != nil {
		return
	}
	if _, s.err = s.bw.Write(line); s.err == nil {
		s.err = s.bw.WriteByte('\n')
	}
}

// Flush flushes the buffer and returns the first error the writer met.
func (s *Writer) Flush() error {
	if err := s.bw.Flush(); s.err == nil {
		s.err = err
	}
	return s.err
}

// Report is the parse accounting of one Read. For non-empty input,
// Records + BadLines + 1 (the header) equals Lines.
type Report struct {
	Lines    int // non-blank lines scanned, including the header
	Records  int // lines decoded successfully
	BadLines int // malformed or unknown-kind lines skipped

	FirstBadLine int   // 1-based line number of the first bad line (0 = none)
	FirstBadErr  error // what was wrong with it
}

// Clean reports whether every scanned line decoded.
func (rr *Report) Clean() bool { return rr.BadLines == 0 }

// Err summarizes the damage as one error, or nil when the read was clean.
func (rr *Report) Err() error {
	if rr.Clean() {
		return nil
	}
	return fmt.Errorf("jsonl: %d of %d lines malformed (first at line %d: %v)",
		rr.BadLines, rr.Lines, rr.FirstBadLine, rr.FirstBadErr)
}

// blank reports whether a line holds nothing but JSON whitespace.
func blank(line []byte) bool {
	for _, c := range line {
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}

// Read scans r line by line. The first non-blank line must be this format's
// header at exactly f.Schema; every non-blank line after it goes to decode.
// A line decode rejects is skipped and counted in the Report — the caller
// decides whether damage is fatal (Report.Err). The error return is reserved
// for unreadable input: I/O failure, an oversized line, or a first line that
// is not this format's header at this schema — a file of another format, of
// another schema, or no file of a format at all. Empty or blank-only input
// is 0 records and no error. The Report is never nil.
func (f Format) Read(r io.Reader, decode func(line []byte) error) (*Report, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	rr := &Report{}
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if blank(raw) {
			continue
		}
		rr.Lines++
		if rr.Lines == 1 {
			var hdr header
			if err := json.Unmarshal(raw, &hdr); err != nil || hdr.Format != f.Name {
				return rr, fmt.Errorf("jsonl: not a %s file: line %d is no %s header", f.Name, line, f.Name)
			}
			if hdr.Schema != f.Schema {
				return rr, fmt.Errorf("jsonl: %s file declares schema v%d, this reader reads v%d only",
					f.Name, hdr.Schema, f.Schema)
			}
			continue
		}
		if err := decode(raw); err != nil {
			rr.BadLines++
			if rr.FirstBadLine == 0 {
				rr.FirstBadLine = line
				rr.FirstBadErr = fmt.Errorf("jsonl line %d: %w", line, err)
			}
			continue
		}
		rr.Records++
	}
	return rr, sc.Err()
}
