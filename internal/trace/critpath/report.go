package critpath

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Rendering and run-to-run comparison. All output here is deterministic:
// fixed category order, stable sorts keyed on (duration, then position),
// and no map iteration — `make critpath-selftest` byte-compares a committed
// golden report against a fresh run.

// secs formats a virtual duration as seconds with microsecond precision.
func secs(d time.Duration) string { return fmt.Sprintf("%.6f", d.Seconds()) }

// TopSegments returns the k longest merged segments, longest first; ties
// break on earlier start time. The report's Segments slice is not reordered.
func (r *Report) TopSegments(k int) []Segment {
	segs := make([]Segment, len(r.Segments))
	copy(segs, r.Segments)
	sort.SliceStable(segs, func(i, j int) bool {
		if segs[i].Dur() != segs[j].Dur() {
			return segs[i].Dur() > segs[j].Dur()
		}
		return segs[i].From < segs[j].From
	})
	if k < len(segs) {
		segs = segs[:k]
	}
	return segs
}

// Render writes the human-readable report: headline, the full category
// share table (every category, fixed order), per-rank shares, and the top-k
// longest segments.
func (r *Report) Render(w io.Writer, topK int) {
	fmt.Fprintf(w, "critical path: job %q, makespan %ss (vt %s -> %s)\n",
		r.JobID, secs(r.Makespan), secs(r.Start), secs(r.End))
	fmt.Fprintf(w, "  %d path steps merged into %d segments, %d cross-rank/thread hops\n",
		r.Steps, len(r.Segments), r.CrossEdges)
	if r.Unreliable {
		fmt.Fprintf(w, "  !! UNRELIABLE: %d events were overwritten by the ring buffers;\n", r.Dropped)
		fmt.Fprintf(w, "  !! the DAG has holes and attributions below may bind to wrong causes.\n")
		fmt.Fprintf(w, "  !! Re-run with ftmr-sim -report, whose trace.jsonl streams every event.\n")
	}

	fmt.Fprintf(w, "\ncategory shares:\n")
	fmt.Fprintf(w, "  %-20s %12s %8s\n", "category", "seconds", "share")
	for _, c := range Categories() {
		fmt.Fprintf(w, "  %-20s %12s %7.2f%%\n", c.String(), secs(r.ByCategory[c]), 100*r.Share(c))
	}
	fmt.Fprintf(w, "  %-20s %12s %7.2f%%\n", "total", secs(r.Makespan), 100.0)
	fmt.Fprintf(w, "  recovery on the critical path: %.2f%%\n", 100*r.RecoveryShare())

	fmt.Fprintf(w, "\nper-rank share:\n")
	ranks := make([]int, 0, len(r.ByRank))
	for rk := range r.ByRank {
		ranks = append(ranks, rk)
	}
	sort.Ints(ranks)
	for _, rk := range ranks {
		fmt.Fprintf(w, "  rank %-4d %12s %7.2f%%\n", rk, secs(r.ByRank[rk]),
			100*float64(r.ByRank[rk])/float64(r.Makespan))
	}

	if topK > 0 {
		fmt.Fprintf(w, "\ntop %d segments:\n", topK)
		fmt.Fprintf(w, "  %3s %12s %5s %-20s %-8s %s\n", "#", "seconds", "rank", "category", "phase", "interval")
		for i, s := range r.TopSegments(topK) {
			ph := s.Phase
			if ph == "" {
				ph = "-"
			}
			fmt.Fprintf(w, "  %3d %12s %5d %-20s %-8s %s-%s\n",
				i+1, secs(s.Dur()), s.Rank, s.Category.String(), ph, secs(s.From), secs(s.To))
		}
	}
}

// Delta is one category's share movement between two runs.
type Delta struct {
	Category       Category // which attribution bucket moved
	ShareA, ShareB float64  // fraction of each run's makespan
}

// Regressed reports whether the share grew by more than threshold.
func (d Delta) Regressed(threshold float64) bool { return d.ShareB-d.ShareA > threshold }

// Compare diffs two reports' path composition. It returns every category's
// delta in canonical order plus the first category whose share of the
// makespan grew by more than threshold in b relative to a (nil when none
// did) — the `critpath -against` gate.
func Compare(a, b *Report, threshold float64) ([]Delta, *Delta) {
	deltas := make([]Delta, 0, int(numCategories))
	var first *Delta
	for _, c := range Categories() {
		d := Delta{Category: c, ShareA: a.Share(c), ShareB: b.Share(c)}
		deltas = append(deltas, d)
		if first == nil && d.Regressed(threshold) {
			first = &deltas[len(deltas)-1]
		}
	}
	return deltas, first
}

// RenderCompare writes the side-by-side share table and the verdict line.
// The returned flag mirrors Compare's: true when some category regressed.
func RenderCompare(w io.Writer, a, b *Report, threshold float64) bool {
	deltas, first := Compare(a, b, threshold)
	fmt.Fprintf(w, "critical-path composition: A makespan %ss, B makespan %ss (%+.2f%%)\n",
		secs(a.Makespan), secs(b.Makespan),
		100*(float64(b.Makespan)-float64(a.Makespan))/float64(a.Makespan))
	if a.Unreliable || b.Unreliable {
		fmt.Fprintf(w, "  !! UNRELIABLE: at least one input lost events to ring overwrites.\n")
	}
	fmt.Fprintf(w, "  %-20s %8s %8s %8s\n", "category", "A", "B", "delta")
	for _, d := range deltas {
		mark := ""
		if d.Regressed(threshold) {
			mark = "  << regressed"
		}
		fmt.Fprintf(w, "  %-20s %7.2f%% %7.2f%% %+7.2f%%%s\n",
			d.Category.String(), 100*d.ShareA, 100*d.ShareB, 100*(d.ShareB-d.ShareA), mark)
	}
	if first != nil {
		fmt.Fprintf(w, "REGRESSION: %s grew from %.2f%% to %.2f%% of the critical path (threshold %+.2f%%)\n",
			first.Category.String(), 100*first.ShareA, 100*first.ShareB, 100*threshold)
		return true
	}
	fmt.Fprintf(w, "no category regressed beyond %+.2f%% of the makespan\n", 100*threshold)
	return false
}
