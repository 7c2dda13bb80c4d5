package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// FuzzReadJSONL feeds arbitrary bytes to the shared JSONL reader
// (internal/jsonl) through the trace format: it must never panic, must
// account every non-blank line as the header, a record or a bad line, must
// hard-fail exactly where it documents (a first non-blank line that is no
// current trace header, or an oversized line — never on a file that starts
// with one), and every decoded event must survive a write/read round trip.
// It is differential: the in-place decoder of writer-form lines may take a
// line for itself only where encoding/json (readJSONLReference) accepts it
// and yields the same Event, so both readers return the same events, the
// same report and the same verdict on every input.
// FuzzDecodeSnapshot (internal/introspect) drives the same reader through
// the other format.
func FuzzReadJSONL(f *testing.F) {
	header := `{"format":"ftmr-trace","schema":2}` + "\n"
	ev := `{"seq":2,"vt_us":5,"rank":0,"kind":"send.end","a":1,"b":7,"c":64,"flow":9}` + "\n"
	f.Add([]byte{})
	f.Add([]byte(header))
	f.Add([]byte(header + ev + ev))
	f.Add([]byte(header + ev[:len(ev)/2])) // torn tail
	f.Add([]byte(ev))                      // headerless: rejected
	f.Add([]byte(header + `{"seq":1,"kind":"no.such.kind"}` + "\n" + ev))
	f.Add([]byte(`{"format":"ftmr-trace","schema":3}` + "\n" + ev)) // another schema: rejected
	f.Add([]byte(`{"seq":18446744073709551615,"vt_us":1125899906842.623,"rank":-1,"kind":"lb.fit","name":"trace","a":-9223372036854775808,"b":9223372036854775807,"c":1,"flow":18446744073709551615}` + "\n" +
		`{"seq":18446744073709551616,"vt_us":0.0001,"rank":01,"kind":"lb.fit"}` + "\n"))
	for _, fixture := range []string{"testdata/golden_v2.jsonl", "testdata/golden.jsonl", "testdata/foreign.jsonl", "../jsonl/testdata/junk.bin"} {
		data, err := os.ReadFile(fixture)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, rr, err := ReadJSONL(bytes.NewReader(data))
		if rr == nil {
			t.Fatal("nil report")
		}
		refEvents, refRR, refErr := readJSONLReference(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("verdict %v, reference %v", err, refErr)
		}
		if !slices.Equal(events, refEvents) {
			t.Fatalf("events differ from the reference decoder's:\n%+v\n%+v", events, refEvents)
		}
		if rr.Lines != refRR.Lines || rr.Records != refRR.Records ||
			rr.BadLines != refRR.BadLines || rr.FirstBadLine != refRR.FirstBadLine {
			t.Fatalf("report %+v, reference %+v", rr, refRR)
		}
		if err != nil {
			// Past a current header, only an oversized (> 16 MiB) line may
			// still fail the read.
			if startsWithHeader(data) && len(data) <= 16<<20 {
				t.Fatalf("hard failure %v on a file with a current header: %+v", err, rr)
			}
			return
		}
		if rr.Lines > 0 && !startsWithHeader(data) {
			t.Fatalf("read %+v from a file that starts with no current header", rr)
		}
		if rr.Records != len(events) {
			t.Fatalf("report counts %d records, reader returned %d", rr.Records, len(events))
		}
		if rr.Lines > 0 && rr.Records+rr.BadLines+1 != rr.Lines {
			t.Fatalf("%d records + %d bad + the header != %d lines", rr.Records, rr.BadLines, rr.Lines)
		}
		var buf bytes.Buffer
		out := wire.NewWriter(&buf)
		for i := range events {
			out.WriteLine(appendJSONL(nil, &events[i]))
		}
		if err := out.Flush(); err != nil {
			t.Fatal(err)
		}
		again, rr2, err := ReadJSONL(&buf)
		if err != nil || !rr2.Clean() || len(again) != len(events) {
			t.Fatalf("re-read: %v / %v (%d of %d events)", err, rr2.Err(), len(again), len(events))
		}
		for i := range again {
			if again[i].Kind != events[i].Kind || again[i].Seq != events[i].Seq || again[i].Flow != events[i].Flow {
				t.Fatalf("event %d changed across a round trip: %+v -> %+v", i, events[i], again[i])
			}
		}
	})
}

// startsWithHeader reports whether data's first line holding more than
// spaces and tabs is a trace header at SchemaVersion.
func startsWithHeader(data []byte) bool {
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.Trim(line, " \t\r")) == 0 {
			continue
		}
		var hdr struct {
			Format string `json:"format"`
			Schema int    `json:"schema"`
		}
		return json.Unmarshal(line, &hdr) == nil && hdr.Format == "ftmr-trace" && hdr.Schema == SchemaVersion
	}
	return false
}
