package introspect

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the introspection JSONL
// reader: it must never panic; a read that does not hard-fail (a first line
// that is no current header, or an oversized line) accounts every non-blank
// line as the header, a record or a bad line, and every decoded record must
// survive a re-encode/decode round trip.
func FuzzDecodeSnapshot(f *testing.F) {
	header := `{"format":"ftmr-introspect","schema":2}` + "\n"
	snap := `{"kind":"snapshot","vt_us":10000,"seq":0,"ranks":[{"rank":0,"state":"collective","task":-2,"src":-2,"tag":-2,"comm":0,"op":"barrier","seq":0,"posted_us":0}],"waits":[{"from":[0,1],"to":[2]}]}` + "\n"
	v1 := `{"kind":"snapshot","vt_us":10000,"seq":0,"ranks":[{"rank":0,"state":"collective","task":-2,"src":-2,"tag":-2,"comm":0,"op":"barrier","seq":0,"posted_us":0}],"edges":[{"from":0,"to":2,"why":"coll"}]}` + "\n"
	stall := `{"kind":"stall","vt_us":10000,"reason":"deadlock-cycle","cycle":[0,2],"members":[{"rank":0,"reason":"collective barrier comm=0 seq=0"}],"oldest_us":0}` + "\n"
	f.Add([]byte{})
	f.Add([]byte(header))
	f.Add([]byte(header + snap + stall))
	f.Add([]byte(`{"format":"ftmr-introspect","schema":1}` + "\n" + v1 + stall)) // another schema: rejected
	f.Add([]byte(header + snap[:len(snap)/2]))                                   // torn tail
	f.Add([]byte(snap + stall))                                                  // headerless: rejected
	f.Add([]byte(header + `{"kind":"mystery"}` + "\n" + stall))
	f.Add([]byte(`{"format":"ftmr-introspect","schema":3}` + "\n" + snap)) // newer schema
	corrupt := []byte(header + snap)
	corrupt[len(header)+20] ^= 0x80
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		lines, rr, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return // no current header, or an oversized line: legal hard failure
		}
		if rr.Records != len(lines) {
			t.Fatalf("report counts %d records, reader returned %d", rr.Records, len(lines))
		}
		if rr.Lines > 0 && rr.Records+rr.BadLines+1 != rr.Lines {
			t.Fatalf("%d records + %d bad + the header != %d lines", rr.Records, rr.BadLines, rr.Lines)
		}
		for i, ln := range lines {
			if (ln.Snapshot == nil) == (ln.Stall == nil) {
				t.Fatalf("line %d: exactly one of Snapshot/Stall must be set", i)
			}
			var re []byte
			var err error
			if ln.Snapshot != nil {
				re, err = json.Marshal(ln.Snapshot)
			} else {
				re, err = json.Marshal(ln.Stall)
			}
			if err != nil {
				t.Fatalf("line %d: re-encode: %v", i, err)
			}
			again, rr2, err := ReadJSONL(strings.NewReader(header + string(re) + "\n"))
			if err != nil || !rr2.Clean() || len(again) != 1 {
				t.Fatalf("line %d: re-decode: %v / %v (%d records)", i, err, rr2.Err(), len(again))
			}
		}
	})
}
