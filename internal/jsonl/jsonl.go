// Package jsonl is the one versioned, damage-tolerant JSONL codec behind
// every line-oriented file the simulator writes (event traces, introspection
// snapshots). A file is one JSON object per line; the first line is a header
// naming the format and its schema version. Writers are buffered with a
// sticky error; the reader skips and counts damaged lines instead of failing,
// so a file cut short by a crash stays loadable, and hard-fails only on
// input it cannot stand behind: I/O failure, an oversized line, a schema
// newer than the reader, or input that is not a file of this format at all.
//
// Each wire format (DESIGN.md §"Trace wire format v2") supplies only its
// name, its newest schema and a per-line decode function.
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
// the schema version this build writes, which is also the newest it reads.
type Format struct {
	Name   string // the header's "format" value, e.g. "ftmr-trace"
	Schema int    // the version written, and the newest version Read accepts
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

// Report is the parse accounting of one Read. Records + BadLines (+ 1 when
// Header) always equals Lines.
type Report struct {
	Schema   int  // declared wire-format version (1 when no header line)
	Header   bool // whether a header line was present
	Lines    int  // non-blank lines scanned, including the header
	Records  int  // lines decoded successfully
	BadLines int  // malformed or unknown-kind lines skipped

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

// Read scans r line by line, handing every non-blank line after the header
// to decode. A line decode rejects is skipped and counted in the Report —
// the caller decides whether damage is fatal (Report.Err). A headerless file
// is read as schema 1. The error return is reserved for unreadable input:
// I/O failure, an oversized line, a header declaring a schema newer than
// f.Schema, or non-blank input with no header in which no line decodes —
// that is some other file, not a damaged one. The Report is never nil.
func (f Format) Read(r io.Reader, decode func(line []byte) error) (*Report, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	rr := &Report{Schema: 1}
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		rr.Lines++
		if rr.Lines == 1 {
			var hdr header
			if err := json.Unmarshal(raw, &hdr); err == nil && hdr.Format == f.Name {
				if hdr.Schema > f.Schema {
					return rr, fmt.Errorf("jsonl: %s file declares schema v%d, this reader understands <= v%d",
						f.Name, hdr.Schema, f.Schema)
				}
				rr.Header, rr.Schema = true, hdr.Schema
				continue
			}
			// No header: a schema-1 file whose first line is a record.
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
	if err := sc.Err(); err != nil {
		return rr, err
	}
	if !rr.Header && rr.Records == 0 && rr.Lines > 0 {
		return rr, fmt.Errorf("jsonl: not a %s file: no header, and none of its %d lines decodes (%v)",
			f.Name, rr.Lines, rr.FirstBadErr)
	}
	return rr, nil
}
