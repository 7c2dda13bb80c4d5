package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"ftmrmpi/internal/jsonl"
)

// Sinks. The in-memory sink is the Tracer itself (Events / EventsFor); this
// file adds the two serialized forms: a JSONL stream (one event per line,
// trivially greppable and diffable across runs) and the Chrome trace_event
// format, which Perfetto and chrome://tracing open directly — one process
// track per rank (main thread + copier thread), nested B/E spans for
// phases, collectives and point-to-point calls, instants for commits and
// decisions, and async spans for recovery episodes.

// jsonlEvent is the JSONL wire form of one Event (DESIGN.md §"Trace wire
// format v2" is the field-by-field spec; vt_us is virtual microseconds).
type jsonlEvent struct {
	Seq  uint64  `json:"seq"`
	VTus float64 `json:"vt_us"`
	Rank int     `json:"rank"`
	Kind string  `json:"kind"`
	Name string  `json:"name,omitempty"`
	A    int64   `json:"a,omitempty"`
	B    int64   `json:"b,omitempty"`
	C    int64   `json:"c,omitempty"`
	Flow uint64  `json:"flow,omitempty"`
}

// wire is the JSONL trace format (internal/jsonl holds the codec: header
// line, buffered sticky-error writer, damage-tolerant reader).
var wire = jsonl.Format{Name: "ftmr-trace", Schema: SchemaVersion}

// appendJSONL appends ev's line of the wire format (no newline) to dst: byte
// for byte what encoding/json writes for the jsonlEvent of ev — field order,
// omitted zero fields, string escaping and float formatting — without the
// reflection or the per-event allocations. codec_test.go holds the
// encoding/json form as the reference.
func appendJSONL(dst []byte, ev *Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, ev.Seq, 10)
	// A whole number of nanoseconds, in microseconds, is 0 or has a magnitude
	// in [1e-3, 1e16): encoding/json prints that range in 'f' form, never 'e'.
	dst = append(dst, `,"vt_us":`...)
	dst = strconv.AppendFloat(dst, float64(ev.VT)/1e3, 'f', -1, 64)
	dst = append(dst, `,"rank":`...)
	dst = strconv.AppendInt(dst, int64(ev.Rank), 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, ev.Kind.String()...) // wire names need no escaping
	dst = append(dst, '"')
	if ev.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = appendJSONString(dst, ev.Name)
	}
	dst = appendIntField(dst, `,"a":`, ev.A)
	dst = appendIntField(dst, `,"b":`, ev.B)
	dst = appendIntField(dst, `,"c":`, ev.C)
	if ev.Flow != 0 {
		dst = append(dst, `,"flow":`...)
		dst = strconv.AppendUint(dst, ev.Flow, 10)
	}
	return append(dst, '}')
}

// appendIntField appends key and v, or nothing when v is zero (omitempty).
func appendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendJSONString appends s as a JSON string the way encoding/json does
// with HTML escaping on: \" and \\, the five short control escapes, \u00XX
// for the other control bytes and for <, > and &, \ufffd for each byte of
// invalid UTF-8, \u2028 and \u2029 escaped, everything else as it is.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// WriteJSONL writes the schema header followed by every retained event as
// one JSON object per line, in causal order. When a rank's ring overwrote
// events, a synthetic trace.drops marker per damaged rank is appended so
// file consumers can tell a truncated DAG from a complete one. The events
// are written straight from the rings as they merge: nothing the write
// allocates grows with the number of events.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	out := wire.NewWriter(w)
	var line []byte
	write := func(ev *Event) {
		line = appendJSONL(line[:0], ev)
		out.WriteLine(line)
	}
	if t != nil {
		t.merge(write)
	}
	drops := t.DropEvents()
	for i := range drops {
		write(&drops[i])
	}
	return out.Flush()
}

// DropEvents synthesizes one trace.drops marker (A = overwritten event
// count) per rank whose ring dropped events, sequenced after every recorded
// event. The tracer itself is not mutated; live consumers should keep using
// Dropped(), these markers exist for the serialized forms.
func (t *Tracer) DropEvents() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	seq := t.seq
	for _, rank := range t.Ranks() {
		if d := t.Dropped(rank); d > 0 {
			seq++
			out = append(out, Event{
				Seq: seq, VT: t.sim.Now(), Rank: rank,
				Kind: KindDrops, A: int64(d),
			})
		}
	}
	return out
}

// StreamJSONL attaches a write-through JSONL sink: the schema header is
// written immediately, then every emitted event is written to w as it
// happens, in global Seq order (buffered; call FlushStream at the end) — so a
// long chaos or continuous-failure run is fully captured even after the
// per-rank rings start overwriting. Pass nil to detach. No-op on a nil
// tracer.
func (t *Tracer) StreamJSONL(w io.Writer) {
	if t == nil {
		return
	}
	t.stream = nil
	if w != nil {
		t.stream = wire.NewWriter(w)
	}
}

// FlushStream flushes the streaming sink's buffer and returns the first
// error the sink encountered (nil when no sink is attached).
func (t *Tracer) FlushStream() error {
	if t == nil || t.stream == nil {
		return nil
	}
	return t.stream.Flush()
}

// Chrome trace_event constants.
const (
	chromeTidMain   = 1
	chromeTidCopier = 2
	// chromeWorldPID is the pseudo-pid of the GlobalRank track.
	chromeWorldPID = 1 << 20
)

// chromeEvent is one trace_event record (the subset of fields we emit).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"` // virtual microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    int            `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	BP    string         `json:"bp,omitempty"` // flow binding point ("e")
	Args  map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level JSON object.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func chromePID(rank int) int {
	if rank == GlobalRank {
		return chromeWorldPID
	}
	return rank
}

// chromeKindTID maps an event kind to the thread track it renders on.
func chromeKindTID(k Kind) int {
	switch k {
	case KindCopierDrain, KindCopierBegin, KindCopierEnd:
		return chromeTidCopier
	}
	return chromeTidMain
}

// WriteChrome writes events in Chrome trace_event JSON: one process track per
// rank that appears in them, with a main and a copier thread. It is a pure
// function of the events, so a trace read back from a file (ReadJSONL)
// renders as completely as the file holds it.
func WriteChrome(w io.Writer, events []Event) error {
	var ranks []int
	seen := make(map[int]bool)
	for i := range events {
		if r := events[i].Rank; !seen[r] {
			seen[r] = true
			ranks = append(ranks, r)
		}
	}
	slices.Sort(ranks)

	var out []chromeEvent
	// Track metadata: one "process" per rank, named threads.
	for _, rank := range ranks {
		pid := chromePID(rank)
		pname := fmt.Sprintf("rank %d", rank)
		if rank == GlobalRank {
			pname = "world"
		}
		out = append(out,
			chromeEvent{Name: "process_name", Ph: "M", PID: pid, TID: 0,
				Args: map[string]any{"name": pname}},
			chromeEvent{Name: "process_sort_index", Ph: "M", PID: pid, TID: 0,
				Args: map[string]any{"sort_index": pid}},
			chromeEvent{Name: "thread_name", Ph: "M", PID: pid, TID: chromeTidMain,
				Args: map[string]any{"name": "main"}},
			chromeEvent{Name: "thread_name", Ph: "M", PID: pid, TID: chromeTidCopier,
				Args: map[string]any{"name": "copier"}},
		)
	}

	span := func(ev Event, ph, cat, name string, args map[string]any) chromeEvent {
		return chromeEvent{
			Name: name, Cat: cat, Ph: ph,
			TS:  float64(ev.VT) / 1e3,
			PID: chromePID(ev.Rank), TID: chromeKindTID(ev.Kind),
			Args: args,
		}
	}
	instant := func(ev Event, cat, name string, args map[string]any) chromeEvent {
		e := span(ev, "i", cat, name, args)
		e.Scope = "t"
		return e
	}

	// Async recovery ids: one per (rank, episode).
	asyncID := 0
	openRecovery := make(map[int]int)

	for _, ev := range events {
		switch ev.Kind {
		case KindPhaseBegin:
			out = append(out, span(ev, "B", "phase", "phase:"+ev.Name, nil))
		case KindPhaseEnd:
			out = append(out, span(ev, "E", "phase", "phase:"+ev.Name, nil))
		case KindSendBegin, KindSendEnd:
			ph := "B"
			if ev.Kind == KindSendEnd {
				ph = "E"
			}
			out = append(out, span(ev, ph, "p2p", fmt.Sprintf("send->w%d", ev.A),
				map[string]any{"peer": ev.A, "tag": ev.B, "bytes": ev.C}))
			if ev.Kind == KindSendEnd && ev.Flow != 0 {
				// Flow start: the arrow tail, bound to the send span's end.
				fe := span(ev, "s", "p2p", "msg", nil)
				fe.ID = int(ev.Flow)
				out = append(out, fe)
			}
		case KindRecvBegin, KindRecvEnd:
			ph := "B"
			if ev.Kind == KindRecvEnd {
				ph = "E"
			}
			peer := "any"
			if ev.A >= 0 {
				peer = fmt.Sprintf("w%d", ev.A)
			}
			out = append(out, span(ev, ph, "p2p", "recv<-"+peer,
				map[string]any{"peer": ev.A, "tag": ev.B, "bytes": ev.C}))
			if ev.Kind == KindRecvEnd && ev.Flow != 0 {
				// Flow finish: the arrow head on the receiving rank's track,
				// bound to the enclosing (recv) slice end.
				fe := span(ev, "f", "p2p", "msg", nil)
				fe.ID = int(ev.Flow)
				fe.BP = "e"
				out = append(out, fe)
			}
		case KindCollBegin:
			out = append(out, span(ev, "B", "coll", "coll:"+ev.Name, nil))
		case KindCollEnd:
			out = append(out, span(ev, "E", "coll", "coll:"+ev.Name, nil))
		case KindCkptCommit:
			out = append(out, instant(ev, "ckpt", "ckpt:"+ev.Name,
				map[string]any{"bytes": ev.A, "frames": ev.B}))
		case KindCopierDrain:
			out = append(out, instant(ev, "ckpt", "drain:"+ev.Name,
				map[string]any{"bytes": ev.A}))
		case KindCopierBegin:
			out = append(out, span(ev, "B", "ckpt", "copy:"+ev.Name,
				map[string]any{"bytes": ev.A}))
		case KindCopierEnd:
			out = append(out, span(ev, "E", "ckpt", "copy:"+ev.Name,
				map[string]any{"bytes": ev.A}))
		case KindCkptLoad:
			out = append(out, instant(ev, "ckpt", "load:"+ev.Name,
				map[string]any{"bytes": ev.A, "frames": ev.B}))
		case KindCkptCorrupt:
			out = append(out, instant(ev, "ckpt", "corrupt:"+ev.Name,
				map[string]any{"valid": ev.A, "total": ev.B}))
		case KindFailureInject:
			out = append(out, instant(ev, "failure", fmt.Sprintf("inject:w%d", ev.A), nil))
		case KindFailureKill:
			out = append(out, instant(ev, "failure", fmt.Sprintf("kill:w%d", ev.A), nil))
		case KindFailureDetect:
			out = append(out, instant(ev, "failure", "detect",
				map[string]any{"rank": ev.A, "count": ev.B}))
		case KindRevoke:
			out = append(out, instant(ev, "ulfm", "revoke:"+ev.Name, nil))
		case KindShrinkBegin:
			out = append(out, span(ev, "B", "ulfm", "shrink",
				map[string]any{"group": ev.A}))
		case KindShrinkEnd:
			out = append(out, span(ev, "E", "ulfm", "shrink",
				map[string]any{"survivors": ev.A}))
		case KindAgreeBegin:
			out = append(out, span(ev, "B", "ulfm", "agree", nil))
		case KindAgreeEnd:
			out = append(out, span(ev, "E", "ulfm", "agree", nil))
		case KindLoadBalance:
			out = append(out, instant(ev, "runner", "lb:"+ev.Name,
				map[string]any{"pieces": ev.A, "survivors": ev.B}))
		case KindLBFit:
			out = append(out, instant(ev, "runner", "lb.fit:"+ev.Name,
				map[string]any{"intercept_ns": ev.A, "slope_ps_per_byte": ev.B, "obs": ev.C}))
		case KindSlowRank:
			out = append(out, instant(ev, "failure", fmt.Sprintf("slow:w%d", ev.A),
				map[string]any{"factor_permille": ev.B}))
		case KindTaskCommit:
			out = append(out, instant(ev, "runner", fmt.Sprintf("commit:%s:%d", ev.Name, ev.A),
				map[string]any{"count": ev.B}))
		case KindRecoveryBegin:
			asyncID++
			openRecovery[ev.Rank] = asyncID
			e := span(ev, "b", "recovery", "recovery", nil)
			e.ID = asyncID
			out = append(out, e)
		case KindRecoveryEnd:
			id := openRecovery[ev.Rank]
			if id == 0 {
				continue // begin lost to ring overflow
			}
			delete(openRecovery, ev.Rank)
			e := span(ev, "e", "recovery", "recovery", nil)
			e.ID = id
			out = append(out, e)
		case KindJobBegin:
			out = append(out, instant(ev, "runner", "job.begin:"+ev.Name, nil))
		case KindJobEnd:
			out = append(out, instant(ev, "runner", "job.end:"+ev.Name,
				map[string]any{"aborted": ev.A}))
		case KindRecoveryStage:
			out = append(out, instant(ev, "recovery", "stage:"+ev.Name,
				map[string]any{"ns": ev.A}))
		case KindCkptStall:
			out = append(out, instant(ev, "ckpt", "stall:"+ev.Name,
				map[string]any{"ns": ev.A}))
		case KindDrops:
			out = append(out, instant(ev, "trace", "drops",
				map[string]any{"events": ev.A}))
		}
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(chromeFile{TraceEvents: out, DisplayTimeUnit: "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}

// kindByName is the inverse of kindNames, for decoding JSONL traces.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// ReadReport is the parse accounting of one ReadJSONL call. A truncated or
// corrupted trace file does not abort the read: damaged lines are counted
// here so tooling (ftmr-trace) can warn instead of silently diffing garbage.
type ReadReport = jsonl.Report

// ReadJSONL decodes a JSONL stream (as written by WriteJSONL or StreamJSONL)
// back into events, in stored order. Blank lines are skipped. Malformed
// lines and unknown kind strings are skipped but *counted* in the returned
// ReadReport — a trace cut short by a crash stays loadable, and the caller
// decides whether damage is fatal (rr.Err). The error return is reserved
// for unreadable input (jsonl.Format.Read): I/O failure, an oversized line,
// or a first line that is not a trace header at SchemaVersion.
//
// A line in the exact form the writer produces is decoded in place; a line
// in any other form (other key order, whitespace, escapes, exponents,
// unknown fields) goes through encoding/json, which also decides every
// rejection. The form of the line alone selects, and both give the same
// Event for a line both can read.
//
// When r holds its unread bytes in memory (a *bytes.Buffer, or any reader
// with a Bytes method), the result is allocated once, one slot per line, and
// never more slots than the bytes could hold events.
func ReadJSONL(r io.Reader) ([]Event, *ReadReport, error) {
	var out []Event
	if held, ok := r.(interface{ Bytes() []byte }); ok {
		// Every event is a line after the header, the last maybe
		// unterminated, and none is shorter than {"kind":"revoke"}.
		b := held.Bytes()
		out = make([]Event, 0, min(bytes.Count(b, []byte{'\n'}), len(b)/len(`{"kind":"revoke"}`)))
	}
	names := make(map[string]string) // the few dozen distinct Name strings of a trace, shared
	rr, err := wire.Read(r, func(line []byte) error {
		ev, ok := decodeCanonical(line, names)
		if !ok {
			var err error
			if ev, err = decodeForeign(line); err != nil {
				return err
			}
		}
		if len(out) == cap(out) {
			// Doubling: append's own policy for a slice this large grows by a
			// quarter, and allocates and clears five times the events read.
			out = slices.Grow(out, max(len(out), 1024))
		}
		out = append(out, ev)
		return nil
	})
	return out, rr, err
}

// decodeForeign decodes one event line of any JSON form.
func decodeForeign(line []byte) (Event, error) {
	var je jsonlEvent
	if err := json.Unmarshal(line, &je); err != nil {
		return Event{}, err
	}
	kind, ok := kindByName[je.Kind]
	if !ok {
		return Event{}, fmt.Errorf("unknown kind %q", je.Kind)
	}
	return Event{
		Seq: je.Seq,
		// Rounded, not truncated: the nearest float64 to a decimal number
		// of microseconds is as often just under the nanosecond as over it.
		VT:   time.Duration(math.Round(je.VTus * 1e3)),
		Rank: je.Rank,
		Kind: kind,
		Name: je.Name,
		A:    je.A,
		B:    je.B,
		C:    je.C,
		Flow: je.Flow,
	}, nil
}

// maxCanonicalVT bounds the instants decodeCanonical reads itself. Below it,
// decimal microseconds with at most three fraction digits are a whole number
// of nanoseconds that float64 arithmetic (parse, x1e3, round: two roundings
// of 2^-53 each) cannot move by half a nanosecond, so the exact integer is
// also what decodeForeign computes. 2^50 ns is 13 days of virtual time.
const maxCanonicalVT = 1 << 50

// decodeCanonical decodes a line that is byte for byte in the writer's form:
// the keys seq, vt_us, rank, kind, then any of name, a, b, c, flow, in that
// order, each once; no whitespace; plain decimal numbers; strings of
// unescaped ASCII. It never rejects: ok is false for every other line, valid
// or not, and decodeForeign decides. Name strings are shared through names.
func decodeCanonical(b []byte, names map[string]string) (ev Event, ok bool) {
	if b, ok = bytes.CutPrefix(b, []byte(`{"seq":`)); !ok {
		return ev, false
	}
	if ev.Seq, b, ok = cutUint(b); !ok {
		return ev, false
	}
	if b, ok = bytes.CutPrefix(b, []byte(`,"vt_us":`)); !ok {
		return ev, false
	}
	var us, frac uint64
	if us, b, ok = cutUint(b); !ok || us >= maxCanonicalVT/1000 {
		return ev, false
	}
	if len(b) > 0 && b[0] == '.' {
		digits := 0
		for b = b[1:]; len(b) > 0 && '0' <= b[0] && b[0] <= '9'; b = b[1:] {
			frac = frac*10 + uint64(b[0]-'0')
			digits++
		}
		switch digits {
		case 1:
			frac *= 100
		case 2:
			frac *= 10
		case 3:
		default:
			return ev, false
		}
	}
	ev.VT = time.Duration(us*1000 + frac)
	if b, ok = bytes.CutPrefix(b, []byte(`,"rank":`)); !ok {
		return ev, false
	}
	var rank int64
	if rank, b, ok = cutInt(b); !ok || int64(int(rank)) != rank {
		return ev, false
	}
	ev.Rank = int(rank)
	if b, ok = bytes.CutPrefix(b, []byte(`,"kind":"`)); !ok {
		return ev, false
	}
	var str []byte
	if str, b, ok = cutString(b); !ok {
		return ev, false
	}
	if ev.Kind, ok = kindByName[string(str)]; !ok {
		return ev, false
	}
	if rest, has := bytes.CutPrefix(b, []byte(`,"name":"`)); has {
		if str, b, ok = cutString(rest); !ok {
			return ev, false
		}
		name, seen := names[string(str)]
		if !seen {
			name = string(str)
			names[name] = name
		}
		ev.Name = name
	}
	if b, ok = cutIntField(b, `,"a":`, &ev.A); !ok {
		return ev, false
	}
	if b, ok = cutIntField(b, `,"b":`, &ev.B); !ok {
		return ev, false
	}
	if b, ok = cutIntField(b, `,"c":`, &ev.C); !ok {
		return ev, false
	}
	if rest, has := bytes.CutPrefix(b, []byte(`,"flow":`)); has {
		if ev.Flow, b, ok = cutUint(rest); !ok {
			return ev, false
		}
	}
	return ev, len(b) == 1 && b[0] == '}'
}

// cutUint reads the decimal digits b starts with: a JSON number with no
// sign, fraction or exponent (so no leading zero) that fits a uint64.
func cutUint(b []byte) (v uint64, rest []byte, ok bool) {
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, b, false
		}
		v = v*10 + d
	}
	if i == 0 || (b[0] == '0' && i > 1) {
		return 0, b, false
	}
	return v, b[i:], true
}

// cutInt is cutUint with an optional minus sign, for an int64.
func cutInt(b []byte) (v int64, rest []byte, ok bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	mag, rest, ok := cutUint(b)
	switch {
	case !ok:
		return 0, b, false
	case neg && mag <= 1<<63:
		return -int64(mag), rest, true // -(1<<63) wraps to itself
	case !neg && mag <= math.MaxInt64:
		return int64(mag), rest, true
	}
	return 0, b, false
}

// cutIntField reads key and its int64 into v when b starts with key, and
// nothing when it does not; false only for a key with no such number.
func cutIntField(b []byte, key string, v *int64) (rest []byte, ok bool) {
	rest, has := bytes.CutPrefix(b, []byte(key))
	if !has {
		return b, true
	}
	*v, rest, ok = cutInt(rest)
	return rest, ok
}

// cutString reads up to the closing quote of a JSON string whose opening
// quote is already consumed, accepting only bytes that stand for themselves:
// ASCII from the space up, no quote, no backslash.
func cutString(b []byte) (s, rest []byte, ok bool) {
	for i, c := range b {
		switch {
		case c == '"':
			return b[:i], b[i+1:], true
		case c < ' ' || c >= utf8.RuneSelf || c == '\\':
			return nil, b, false
		}
	}
	return nil, b, false
}
