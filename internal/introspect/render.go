package introspect

import (
	"fmt"
	"io"
	"strings"
)

// Renderers for ftmr-trace inspect: a human-readable table of the last
// snapshot plus every stall report, and a Graphviz DOT form of the last
// snapshot's wait-for graph.

// SplitLines partitions decoded records into snapshots and stall reports,
// preserving order.
func SplitLines(lines []Line) (snaps []Snapshot, stalls []StallReport) {
	for _, ln := range lines {
		switch {
		case ln.Snapshot != nil:
			snaps = append(snaps, *ln.Snapshot)
		case ln.Stall != nil:
			stalls = append(stalls, *ln.Stall)
		}
	}
	return snaps, stalls
}

// RenderTable writes the human-readable report: a per-rank state table for
// the final snapshot, one line per wait set, and one block per stall report.
func RenderTable(w io.Writer, snaps []Snapshot, stalls []StallReport) {
	if len(snaps) == 0 {
		fmt.Fprintln(w, "no snapshots")
	} else {
		last := snaps[len(snaps)-1]
		fmt.Fprintf(w, "snapshot %d at vt=%.0fus (%d snapshots total)\n",
			last.Seq, last.VTus, len(snaps))
		fmt.Fprintf(w, "%-6s %-11s %-9s %-6s %s\n", "rank", "state", "phase", "task", "detail")
		for i := range last.Ranks {
			rs := &last.Ranks[i]
			task := "-"
			if rs.Task != NoValue {
				task = fmt.Sprintf("%d", rs.Task)
			}
			detail := ""
			if rs.State != StateRunning && rs.State != StateDead {
				detail = waitReason(rs)
			}
			phase := rs.Phase
			if phase == "" {
				phase = "-"
			}
			fmt.Fprintf(w, "%-6d %-11s %-9s %-6s %s\n", rs.Rank, rs.State, phase, task, detail)
		}
		for _, o := range last.Outages {
			fmt.Fprintf(w, "outage: tier %s offline until vt=%.0fus\n", o.Tier, o.UntilUS)
		}
		for _, ws := range last.Waits {
			fmt.Fprintf(w, "waits:  %s -> %s\n", rankList(ws.From), rankList(ws.To))
		}
	}
	for _, rep := range stalls {
		fmt.Fprintf(w, "STALL %s at vt=%.0fus", rep.Reason, rep.VTus)
		if len(rep.Cycle) > 0 {
			fmt.Fprintf(w, " cycle=%v", rep.Cycle)
		}
		if rep.OldestUS >= 0 {
			fmt.Fprintf(w, " oldest-blocked vt=%.0fus", rep.OldestUS)
		}
		fmt.Fprintln(w)
		for _, m := range rep.Members {
			fmt.Fprintf(w, "  rank %d: %s\n", m.Rank, m.Reason)
		}
	}
	verdict := "clean"
	if len(stalls) > 0 {
		verdict = fmt.Sprintf("%d stall report(s)", len(stalls))
	}
	fmt.Fprintf(w, "inspect: %s\n", verdict)
}

// RenderDOT writes the final snapshot's wait-for graph in Graphviz DOT
// form: one node per non-running rank (labeled with its state), one arrow
// per wait-for edge (each wait set expanded), with cycle members from any
// deadlock report drawn in red.
func RenderDOT(w io.Writer, snaps []Snapshot, stalls []StallReport) {
	fmt.Fprintln(w, "digraph waitfor {")
	fmt.Fprintln(w, "  rankdir=LR;")
	if len(snaps) > 0 {
		last := snaps[len(snaps)-1]
		inCycle := make(map[int]bool)
		for _, rep := range stalls {
			for _, r := range rep.Cycle {
				inCycle[r] = true
			}
		}
		for i := range last.Ranks {
			rs := &last.Ranks[i]
			if rs.State == StateRunning {
				continue
			}
			attrs := fmt.Sprintf("label=\"w%d\\n%s\"", rs.Rank, rs.State)
			if inCycle[rs.Rank] {
				attrs += " color=red fontcolor=red"
			}
			fmt.Fprintf(w, "  w%d [%s];\n", rs.Rank, attrs)
		}
		for _, ws := range last.Waits {
			for _, from := range ws.From {
				for _, to := range ws.To {
					attrs := ""
					if inCycle[from] && inCycle[to] {
						attrs = " [color=red]"
					}
					fmt.Fprintf(w, "  w%d -> w%d%s;\n", from, to, attrs)
				}
			}
		}
	}
	fmt.Fprintln(w, "}")
}

// rankList renders world ranks as "w0 w1 w2".
func rankList(ranks []int) string {
	s := make([]string, len(ranks))
	for i, r := range ranks {
		s[i] = fmt.Sprintf("w%d", r)
	}
	return strings.Join(s, " ")
}
