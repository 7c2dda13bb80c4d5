package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"ftmrmpi/internal/doccheck"
)

func TestExportedSymbolsDocumented(t *testing.T) { doccheck.Check(t, ".", "jsonl") }

var testFormat = Format{Name: "ftmr-test", Schema: 2}

type rec struct {
	N int `json:"n"`
}

// readInts decodes {"n":..} records, rejecting anything else.
func readInts(in []byte) ([]int, *Report, error) {
	var out []int
	rr, err := testFormat.Read(bytes.NewReader(in), func(line []byte) error {
		var r struct{ N *int }
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		if r.N == nil {
			return errors.New("no n")
		}
		out = append(out, *r.N)
		return nil
	})
	return out, rr, err
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := testFormat.NewWriter(&buf)
	for i := 0; i < 3; i++ {
		w.Write(rec{i})
	}
	w.WriteLine([]byte(`{"n":3}`)) // a line the caller encoded: written as it is
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := `{"format":"ftmr-test","schema":2}` + "\n"; !strings.HasPrefix(buf.String(), want) {
		t.Fatalf("file starts %q, want header %q", buf.String(), want)
	}
	if want := `{"n":2}` + "\n" + `{"n":3}` + "\n"; !strings.HasSuffix(buf.String(), want) {
		t.Fatalf("file ends %q, want %q", buf.String(), want)
	}
	got, rr, err := readInts(buf.Bytes())
	if err != nil || !rr.Clean() || rr.Err() != nil {
		t.Fatalf("clean file: err=%v report=%+v", err, rr)
	}
	if fmt.Sprint(got) != "[0 1 2 3]" || rr.Lines != 5 || rr.Records != 4 {
		t.Fatalf("got %v, report %+v", got, rr)
	}
}

// The reader's one rule for what is damage and what is not a file of this
// format at all. Damage — bad lines after the header — is counted and the
// read succeeds (a file cut short by a crash stays loadable). A first
// non-blank line that is not this format's header at exactly this schema is
// some other file: a hard error, so no tool can report a clean verdict on
// garbage or read a file of another schema as this one. A line of nothing
// but spaces and tabs is blank.
func TestReadDamageVersusGarbage(t *testing.T) {
	junk, err := os.ReadFile("testdata/junk.bin")
	if err != nil {
		t.Fatal(err)
	}
	const hdr = `{"format":"ftmr-test","schema":2}` + "\n"
	for _, c := range []struct {
		name, in       string
		hard           bool
		lines          int
		records, bad   int
		badAt          int
		errMustMention string
	}{
		{name: "empty", in: ""},
		{name: "blank lines only", in: "\n\n"},
		{name: "whitespace lines only", in: " \n\t\n \t \r\n"},
		{name: "header only", in: hdr, lines: 1},
		{name: "space line before the header", in: " \n" + hdr + `{"n":1}` + "\n", lines: 2, records: 1},
		{name: "whitespace lines between records", in: hdr + `{"n":1}` + "\n\t \n" + `{"n":2}` + "\n", lines: 3, records: 2},
		{name: "cut short after valid records", in: hdr + `{"n":1}` + "\n" + `{"n":`, lines: 3, records: 1, bad: 1, badAt: 3},
		{name: "header then only damage", in: hdr + "{not json\n", lines: 2, bad: 1, badAt: 2},
		{name: "schema too new", in: `{"format":"ftmr-test","schema":3}` + "\n" + `{"n":1}` + "\n", hard: true, errMustMention: "schema v3"},
		{name: "older schema", in: `{"format":"ftmr-test","schema":1}` + "\n" + `{"n":1}` + "\n", hard: true, errMustMention: "schema v1"},
		{name: "space line before a schema-99 header", in: " \n" + `{"format":"ftmr-test","schema":99}` + "\n" + `{"n":1}` + "\n", hard: true, errMustMention: "schema v99"},
		{name: "tab line before a schema-99 header", in: "\t\n" + `{"format":"ftmr-test","schema":99}` + "\n" + `{"n":1}` + "\n", hard: true, errMustMention: "schema v99"},
		{name: "no header", in: `{"n":1}` + "\n\n" + `{"n":2}` + "\n", hard: true, errMustMention: "not a ftmr-test file"},
		{name: "another format's header", in: `{"format":"other","schema":2}` + "\n" + `{"n":5}` + "\n", hard: true, errMustMention: "not a ftmr-test file"},
		{name: "junk fixture", in: string(junk), hard: true, errMustMention: "not a ftmr-test file"},
		{name: "valid JSON of the wrong shape", in: `{"x":1}` + "\n" + `[1,2]` + "\n", hard: true, errMustMention: "line 1 is no ftmr-test header"},
	} {
		got, rr, err := readInts([]byte(c.in))
		if rr == nil {
			t.Fatalf("%s: nil report", c.name)
		}
		if c.hard {
			if err == nil || !strings.Contains(err.Error(), c.errMustMention) {
				t.Errorf("%s: err = %v, want a hard error mentioning %q", c.name, err, c.errMustMention)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: hard-failed: %v", c.name, err)
			continue
		}
		if len(got) != c.records || rr.Lines != c.lines || rr.Records != c.records || rr.BadLines != c.bad ||
			rr.FirstBadLine != c.badAt {
			t.Errorf("%s: %d records, report %+v", c.name, len(got), rr)
		}
		if rr.Lines > 0 && rr.Records+rr.BadLines+1 != rr.Lines {
			t.Errorf("%s: %d records + %d bad + the header != %d lines", c.name, rr.Records, rr.BadLines, rr.Lines)
		}
		if (rr.Err() != nil) != (c.bad > 0) || (c.bad > 0 && rr.FirstBadErr == nil) {
			t.Errorf("%s: Err() = %v with %d bad lines", c.name, rr.Err(), c.bad)
		}
	}
}

func TestReadOversizedLineIsHardError(t *testing.T) {
	in := `{"format":"ftmr-test","schema":2}` + "\n" + `{"n":1}` + "\n" + strings.Repeat("x", maxLine+1) + "\n"
	if _, _, err := readInts([]byte(in)); err == nil {
		t.Fatal("a line over the cap must hard-fail the read, not be split or skipped")
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestWriterErrorIsSticky(t *testing.T) {
	w := testFormat.NewWriter(&failAfter{n: 8192})
	for i := 0; i < 10000; i++ {
		w.Write(rec{i})
		w.WriteLine([]byte(`{"n":0}`))
	}
	if err := w.Flush(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Flush = %v, want the first write error", err)
	}
	w.Write(rec{1})
	w.WriteLine([]byte(`{"n":1}`))
	if err := w.Flush(); err == nil {
		t.Fatal("the error must stay set")
	}
}
