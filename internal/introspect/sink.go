package introspect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"ftmrmpi/internal/jsonl"
)

// Wire format: JSONL with a schema header line, mirroring the trace wire
// format's conventions (DESIGN.md §"Trace wire format v2"): one JSON object
// per line, damage-tolerant reads, and a hard error only for unreadable
// input or a schema newer than the reader.

// SchemaVersion is the snapshot wire-format version this package writes and
// the newest it can read. Schema 2 states the wait-for graph as wait sets;
// a schema-1 line's edge list folds into wait sets on read.
const SchemaVersion = 2

// wire is the introspection JSONL format (internal/jsonl holds the codec).
var wire = jsonl.Format{Name: "ftmr-introspect", Schema: SchemaVersion}

// Line kind discriminators (the "kind" field of every non-header line).
const (
	lineSnapshot = "snapshot"
	lineStall    = "stall"
)

// Stall report reasons.
const (
	// ReasonDeadlock marks a report raised by wait-for-graph cycle
	// detection.
	ReasonDeadlock = "deadlock-cycle"
	// ReasonNoProgress marks a report raised by the wall-clock watchdog
	// (a configured wall interval elapsed with zero virtual-time progress).
	ReasonNoProgress = "no-progress"
)

// RankState is one rank's captured state. Integer fields that do not apply
// to the state hold NoValue; PostedUS is -1 when not applicable. Snapshots
// written before receives named their source may hold -1 in Src, a wildcard.
type RankState struct {
	// Rank is the world rank.
	Rank int `json:"rank"`
	// State is one of the State* constants.
	State string `json:"state"`
	// Phase is the runner phase annotation ("" when unannotated).
	Phase string `json:"phase,omitempty"`
	// Task is the annotated task id, or NoValue.
	Task int `json:"task"`
	// Src is the posted receive source as a world rank, or NoValue when the
	// rank is not blocked in a receive.
	Src int `json:"src"`
	// Tag is the posted receive tag, or NoValue.
	Tag int `json:"tag"`
	// Comm is the communicator id of the blocking receive or collective, or
	// NoValue.
	Comm int `json:"comm"`
	// Op is the meeting's operation name: a collective's, "shrink" or
	// "agree" ("" outside meetings).
	Op string `json:"op,omitempty"`
	// Seq is the collective sequence number, or NoValue (also for Shrink
	// and Agree).
	Seq int `json:"seq"`
	// PostedUS is the blocked-since virtual time in microseconds (the
	// receive's posting for StateRecv, the meeting's entry for StateColl),
	// the timer fire time (for StateTimer), or -1.
	PostedUS float64 `json:"posted_us"`
}

// WaitSet is a block of the wait-for graph: every rank in From waits for
// every rank in To (world ranks, each list ascending). The entrants of one
// gathering meeting share one set, so the meeting costs |From|+|To| on the
// wire rather than |From|x|To| edges.
type WaitSet struct {
	// From lists the waiting world ranks.
	From []int `json:"from"`
	// To lists the world ranks they wait for.
	To []int `json:"to"`
}

// Snapshot is one captured per-rank state set with its derived wait-for
// graph.
type Snapshot struct {
	// Kind is always "snapshot".
	Kind string `json:"kind"`
	// VTus is the capture's virtual time in microseconds.
	VTus float64 `json:"vt_us"`
	// Seq is the snapshot index within the run.
	Seq int `json:"seq"`
	// Ranks holds one entry per world rank, ascending.
	Ranks []RankState `json:"ranks"`
	// Waits is the derived wait-for graph, one set per distinct waited-for
	// list, in order of its lowest waiting rank.
	Waits []WaitSet `json:"waits,omitempty"`
	// Outages lists storage tiers inside a fault-injected outage window at
	// capture time.
	Outages []Outage `json:"outages,omitempty"`
}

// StallMember is one rank implicated in a stall report, with its wait
// reason.
type StallMember struct {
	// Rank is the world rank.
	Rank int `json:"rank"`
	// Reason is the human-oriented wait reason.
	Reason string `json:"reason"`
}

// StallReport is one structured stall: a deadlock cycle or a watchdog
// no-progress report.
type StallReport struct {
	// Kind is always "stall".
	Kind string `json:"kind"`
	// VTus is the virtual time of the snapshot the report derives from.
	VTus float64 `json:"vt_us"`
	// Reason is ReasonDeadlock or ReasonNoProgress.
	Reason string `json:"reason"`
	// Cycle lists the cycle members in wait order (deadlock reports only).
	Cycle []int `json:"cycle,omitempty"`
	// Members names every implicated rank with its wait reason.
	Members []StallMember `json:"members,omitempty"`
	// OldestUS is the oldest blocked-since virtual time among the members
	// in microseconds, or -1 when none is blocked.
	OldestUS float64 `json:"oldest_us"`
}

// Line is one decoded introspection record: exactly one of Snapshot or
// Stall is non-nil.
type Line struct {
	// Snapshot is set for "snapshot" lines.
	Snapshot *Snapshot
	// Stall is set for "stall" lines.
	Stall *StallReport
}

// StreamJSONL attaches a write-through sink: the schema header is written
// immediately, then every captured snapshot and stall report is written as
// it happens (buffered; call FlushStream at the end). Writes happen under the
// plane mutex so the sim-thread capture path and the watchdog goroutine never
// interleave. Pass nil to detach. No-op on a nil plane.
func (pl *Plane) StreamJSONL(w io.Writer) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.stream = nil
	if w != nil {
		pl.stream = wire.NewWriter(w)
	}
}

// FlushStream flushes the streaming sink and returns the first error it
// encountered (nil when no sink is attached or on a nil plane).
func (pl *Plane) FlushStream() error {
	if pl == nil {
		return nil
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.stream == nil {
		return nil
	}
	return pl.stream.Flush()
}

// WriteJSONL writes the schema header followed by every retained snapshot
// and stall report, in capture order (each stall immediately after the
// snapshot that raised it). Post-run convenience writer; long-running sims
// use StreamJSONL.
func (pl *Plane) WriteJSONL(w io.Writer) error {
	out := wire.NewWriter(w)
	pl.mu.Lock()
	journal := append([]Line(nil), pl.journal...)
	pl.mu.Unlock()
	for _, ln := range journal {
		switch {
		case ln.Snapshot != nil:
			out.Write(*ln.Snapshot)
		case ln.Stall != nil:
			out.Write(*ln.Stall)
		}
	}
	return out.Flush()
}

// ReadReport is the parse accounting of one ReadJSONL call, shared with the
// trace reader: damaged lines are counted, not fatal, so a file cut short
// by a crash (the introspection plane's prime use case) stays loadable.
type ReadReport = jsonl.Report

// ReadJSONL decodes an introspection JSONL stream back into lines, in
// stored order. Blank lines are skipped; malformed lines and unknown kinds
// are skipped but counted in the ReadReport. The error return is reserved
// for unreadable input (jsonl.Format.Read): I/O failure, an oversized line,
// a header declaring a schema newer than this reader, or a file that is no
// introspection stream at all.
func ReadJSONL(r io.Reader) ([]Line, *ReadReport, error) {
	var out []Line
	rr, err := wire.Read(r, func(raw []byte) error {
		// Every line is decoded as a snapshot first, the kind nearly every
		// line is, with its rank list sized up front (a key count bounds it;
		// the decoder would regrow it element by element).
		var rec struct {
			Snapshot
			Edges []struct{ From, To int } `json:"edges"`
		}
		if n := bytes.Count(raw, []byte(`"rank":`)); n > 0 {
			rec.Ranks = make([]RankState, 0, n)
		}
		err := json.Unmarshal(raw, &rec)
		snap := &rec.Snapshot
		// A schema-1 line's edges, sorted by (From, To), fold into the sets
		// capture draws: each rank's targets, merged by joinWaits.
		for i := 0; i < len(rec.Edges); {
			from, to := rec.Edges[i].From, []int(nil)
			for ; i < len(rec.Edges) && rec.Edges[i].From == from; i++ {
				to = append(to, rec.Edges[i].To)
			}
			snap.Waits = joinWaits(snap.Waits, from, to)
		}
		switch {
		case snap.Kind == lineStall:
			var rep StallReport
			if err := json.Unmarshal(raw, &rep); err != nil {
				return err
			}
			out = append(out, Line{Stall: &rep})
		case err != nil:
			return err
		case snap.Kind == lineSnapshot:
			out = append(out, Line{Snapshot: snap})
		default:
			return fmt.Errorf("unknown kind %q", snap.Kind)
		}
		return nil
	})
	return out, rr, err
}
