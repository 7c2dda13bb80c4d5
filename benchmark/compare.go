package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict compares one end-to-end metric between two sets of runs:
//
//   - worse: the reported value (Stat.of: best repetition or median) moved
//     the wrong way past both the relative bound and the absolute floor;
//   - better: it moved the right way past both, and every new run reads
//     better than every old run;
//   - unresolved: neither, but one side's min-max spread is wider than the
//     bound, so "unchanged" cannot be told from a move of that size;
//   - same: otherwise.
func verdict(m Metric, old, new Stat) string {
	sign := 1.0 // positive delta is worse
	if m.Better == "higher" {
		sign = -1
	}
	base := old.of(m)
	delta := sign * (new.of(m) - base)
	rel := 0.0
	if base != 0 {
		rel = delta / base
	}
	abs := delta
	if abs < 0 {
		abs = -abs
	}
	past := abs > m.Floor && (rel > m.Bound || rel < -m.Bound)
	disjoint := new.Max < old.Min // every new run below every old run
	if m.Better == "higher" {
		disjoint = new.Min > old.Max
	}
	switch {
	case past && rel > 0:
		return "worse"
	case past && disjoint:
		return "better"
	case disjoint:
		return "same"
	case old.spread() > m.Bound || new.spread() > m.Bound:
		return "unresolved"
	}
	return "same"
}

func loadDoc(path string) (*Doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc := new(Doc)
	if err := json.Unmarshal(b, doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != 1 {
		return nil, fmt.Errorf("%s: schema %d, this ftmr-perf reads schema 1", path, doc.Schema)
	}
	return doc, nil
}

// compareFiles prints, per workload and end-to-end metric, both values with
// their ranges, the delta with its base and a verdict, then every exact
// count that changed. It returns 1 on any "worse" or on a larger share of
// failed runs.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	var docs [2]*Doc
	for i, path := range []string{oldPath, newPath} {
		doc, err := loadDoc(path)
		if err != nil {
			fmt.Fprintf(stderr, "ftmr-perf: %v\n", err)
			return 2
		}
		docs[i] = doc
	}
	return compareDocs(docs[0], docs[1], stdout)
}

func compareDocs(old, nw *Doc, w io.Writer) int {
	if old.Seed != nw.Seed || old.Smoke != nw.Smoke {
		fmt.Fprintf(w, "note: the two documents differ in seed or size (seed %d smoke %v vs seed %d smoke %v): counts and virtual times are not comparable\n",
			old.Seed, old.Smoke, nw.Seed, nw.Smoke)
	}
	bad := false
	oldBy := map[string]*WorkloadResult{}
	for _, r := range old.Results {
		oldBy[r.Name] = r
	}
	exact := func(name string, a, b float64) {
		if a != b {
			fmt.Fprintf(w, "  changed  %-40s %.12g -> %.12g\n", name, a, b)
		}
	}
	for _, n := range nw.Results {
		o := oldBy[n.Name]
		if o == nil {
			continue
		}
		fmt.Fprintf(w, "== %s ==\n", n.Name)
		if n.RunsFailed*o.RunsTotal > o.RunsFailed*n.RunsTotal {
			fmt.Fprintf(w, "  worse    runs_failed %d of %d -> %d of %d\n", o.RunsFailed, o.RunsTotal, n.RunsFailed, n.RunsTotal)
			bad = true
		}
		for _, m := range EndToEnd {
			a, aok := o.EndToEnd[m.Name]
			b, bok := n.EndToEnd[m.Name]
			if !aok || !bok {
				continue
			}
			v := verdict(m, a, b)
			bad = bad || v == "worse"
			av, bv := a.of(m), b.of(m)
			pct := 0.0
			if av != 0 {
				pct = 100 * (bv - av) / av
			}
			fmt.Fprintf(w, "  %-10s %-14s %.6g [%.6g..%.6g] n=%d -> %.6g [%.6g..%.6g] n=%d  %+.2f%% of %.6g %s (%s, %s is better, bound %.0f%%)\n",
				v, m.Name, av, a.Min, a.Max, a.N, bv, b.Min, b.Max, b.N, pct, av, m.Unit, statName(m), m.Better, 100*m.Bound)
		}
		if o.Determinism != n.Determinism {
			fmt.Fprintf(w, "  changed  determinism %+v -> %+v\n", o.Determinism, n.Determinism)
		}
		if o.PerLayer != nil && n.PerLayer != nil {
			for _, m := range PerLayer {
				if m.Exact && !isProbe(m.Name) {
					exact(m.Name, o.PerLayer[m.Name], n.PerLayer[m.Name])
				}
			}
		}
	}
	if old.Probes != nil && nw.Probes != nil {
		for _, m := range PerLayer {
			if m.Exact && isProbe(m.Name) {
				exact(m.Name, old.Probes[m.Name], nw.Probes[m.Name])
			}
		}
	}
	if bad {
		fmt.Fprintln(w, "verdict: worse")
		return 1
	}
	fmt.Fprintln(w, "verdict: no end-to-end metric is worse")
	return 0
}
