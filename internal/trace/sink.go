package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

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
// line, buffered sticky-error writer, damage-tolerant reader). v1 files have
// no header — their first line is an event — which the reader accepts.
var wire = jsonl.Format{Name: "ftmr-trace", Schema: SchemaVersion}

// toJSONL converts an Event to its JSONL wire form.
func toJSONL(ev Event) jsonlEvent {
	return jsonlEvent{
		Seq:  ev.Seq,
		VTus: float64(ev.VT) / 1e3,
		Rank: ev.Rank,
		Kind: ev.Kind.String(),
		Name: ev.Name,
		A:    ev.A,
		B:    ev.B,
		C:    ev.C,
		Flow: ev.Flow,
	}
}

// WriteJSONL writes the schema header followed by every retained event as
// one JSON object per line, in causal order. When a rank's ring overwrote
// events, a synthetic trace.drops marker per damaged rank is appended so
// file consumers can tell a truncated DAG from a complete one.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	out := wire.NewWriter(w)
	for _, ev := range t.Events() {
		out.Write(toJSONL(ev))
	}
	for _, ev := range t.DropEvents() {
		out.Write(toJSONL(ev))
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

// WriteChrome writes the retained events in Chrome trace_event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	events := t.Events()
	var out []chromeEvent

	// Track metadata: one "process" per rank, named threads.
	for _, rank := range t.Ranks() {
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
// a header declaring a schema version newer than this package understands,
// or a file that is no trace at all.
func ReadJSONL(r io.Reader) ([]Event, *ReadReport, error) {
	var out []Event
	rr, err := wire.Read(r, func(line []byte) error {
		var je jsonlEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return err
		}
		kind, ok := kindByName[je.Kind]
		if !ok {
			return fmt.Errorf("unknown kind %q", je.Kind)
		}
		out = append(out, Event{
			Seq:  je.Seq,
			VT:   time.Duration(je.VTus * 1e3),
			Rank: je.Rank,
			Kind: kind,
			Name: je.Name,
			A:    je.A,
			B:    je.B,
			C:    je.C,
			Flow: je.Flow,
		})
		return nil
	})
	return out, rr, err
}

// ReadJSONLFile is ReadJSONL over the named file.
func ReadJSONLFile(path string) ([]Event, *ReadReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}

// WriteFile writes the trace to path in the given format ("jsonl" or
// "chrome").
func (t *Tracer) WriteFile(path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "jsonl":
		err = t.WriteJSONL(f)
	case "chrome":
		err = t.WriteChrome(f)
	default:
		err = fmt.Errorf("trace: unknown format %q (jsonl|chrome)", format)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
