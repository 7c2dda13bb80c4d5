package metrics

import (
	"fmt"
	"slices"
)

// Snapshot is an immutable copy of the registry at one virtual instant.
type Snapshot struct {
	// VTSeconds is the virtual time the snapshot was taken, in seconds.
	VTSeconds float64
	// Families holds every family, sorted by name; series within a family
	// are sorted unlabeled-first then numerically.
	Families []FamilySnapshot
}

// FamilySnapshot is the frozen state of one metric family.
type FamilySnapshot struct {
	// Name is the family name (without the counter _total suffix).
	Name string
	// Help is the one-line description from registration.
	Help string
	// Kind is the instrument type.
	Kind Kind
	// Label is the single label key all series carry ("" label values mean
	// an unlabeled series).
	Label string
	// Buckets are the histogram upper bounds (exclusive of +Inf); nil for
	// counters and gauges.
	Buckets []float64
	// Series holds the frozen series in deterministic order.
	Series []SeriesSnapshot
}

// SeriesSnapshot is the frozen state of one series.
type SeriesSnapshot struct {
	// LabelValue is the series' label value; empty means unlabeled
	// (world-scoped).
	LabelValue string
	// Value is the counter or gauge value; unused for histograms.
	Value float64
	// Counts are per-bucket (non-cumulative) histogram counts; the final
	// element is the +Inf bucket. Nil for counters and gauges.
	Counts []uint64
	// Sum is the histogram sum of observations.
	Sum float64
	// Count is the histogram observation count.
	Count uint64
}

// Snapshot returns a deep copy of every family, stamped with the current
// virtual time; a CounterFunc series is read now. Families are sorted by
// name and series unlabeled-first-then-numerically, so identical registry
// states yield identical snapshots regardless of map iteration order.
// Nil-safe: a nil registry yields a zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	snap := Snapshot{Families: make([]FamilySnapshot, 0, len(r.families))}
	if r.sim != nil {
		snap.VTSeconds = r.sim.Seconds()
	}
	for _, name := range r.sortedFamilyNames() {
		f := r.families[name]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, Label: f.label}
		var counts []uint64 // every series' histogram counts, one allocation
		if f.kind == KindHistogram {
			fs.Buckets = append([]float64(nil), f.buckets...)
			counts = make([]uint64, 0, len(f.series)*(len(f.buckets)+1))
		}
		if len(f.series) > 0 {
			fs.Series = make([]SeriesSnapshot, 0, len(f.series))
		}
		for _, lv := range f.sortedSeriesLabels() {
			s := f.series[lv]
			ss := SeriesSnapshot{LabelValue: lv, Value: s.val, Sum: s.sum, Count: s.n}
			for _, fn := range s.fns {
				ss.Value += fn()
			}
			if s.counts != nil {
				n := len(counts)
				counts = append(counts, s.counts...)
				ss.Counts = counts[n:len(counts):len(counts)]
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// Family returns the named family snapshot, or nil when absent.
func (s Snapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Total sums Value across every series of the named family (0 when the
// family is absent). The usual world-level aggregation for per-rank
// counters.
func (s Snapshot) Total(name string) float64 {
	f := s.Family(name)
	if f == nil {
		return 0
	}
	var t float64
	for i := range f.Series {
		t += f.Series[i].Value
	}
	return t
}

// Series returns the value of the named family's series with the given
// label value, and whether it exists.
func (s Snapshot) Series(name, labelValue string) (float64, bool) {
	f := s.Family(name)
	if f == nil {
		return 0, false
	}
	for i := range f.Series {
		if f.Series[i].LabelValue == labelValue {
			return f.Series[i].Value, true
		}
	}
	return 0, false
}

// seriesName renders one series the way the exposition names it.
func (f *FamilySnapshot) seriesName(labelValue string) string {
	if labelValue == "" {
		return f.Name
	}
	return fmt.Sprintf("%s{%s=%q}", f.Name, f.Label, labelValue)
}

// Diff compares two snapshots family by family and series by series and
// returns one human-readable line per difference, in A's order then B's
// extras: the virtual time, a family or series present on one side only, a
// family whose kind or label key changed, a counter or gauge value, a
// histogram's count, sum or bucket counts. Same-seed runs diff empty.
func Diff(a, b Snapshot) []string {
	var out []string
	if a.VTSeconds != b.VTSeconds {
		out = append(out, fmt.Sprintf("virtual time: %g vs %g", a.VTSeconds, b.VTSeconds))
	}
	for i := range a.Families {
		fa := &a.Families[i]
		fb := b.Family(fa.Name)
		if fb == nil {
			out = append(out, fa.Name+": only in A")
			continue
		}
		out = append(out, diffFamily(fa, fb)...)
	}
	for i := range b.Families {
		if a.Family(b.Families[i].Name) == nil {
			out = append(out, b.Families[i].Name+": only in B")
		}
	}
	return out
}

func diffFamily(a, b *FamilySnapshot) []string {
	if a.Kind != b.Kind || a.Label != b.Label {
		return []string{fmt.Sprintf("%s: kind/label mismatch (%s/%s vs %s/%s)",
			a.Name, a.Kind, a.Label, b.Kind, b.Label)}
	}
	// onlyB starts as every series of b; what a also has is struck off.
	onlyB := make(map[string]*SeriesSnapshot, len(b.Series))
	for i := range b.Series {
		onlyB[b.Series[i].LabelValue] = &b.Series[i]
	}
	var out []string
	for i := range a.Series {
		sa := &a.Series[i]
		sb := onlyB[sa.LabelValue]
		delete(onlyB, sa.LabelValue)
		name := a.seriesName(sa.LabelValue)
		switch {
		case sb == nil:
			out = append(out, name+": only in A")
		case a.Kind == KindHistogram && (sa.Count != sb.Count || sa.Sum != sb.Sum):
			out = append(out, fmt.Sprintf("%s: count/sum %d/%g vs %d/%g",
				name, sa.Count, sa.Sum, sb.Count, sb.Sum))
		case a.Kind == KindHistogram && !slices.Equal(sa.Counts, sb.Counts):
			out = append(out, fmt.Sprintf("%s: bucket counts %v vs %v", name, sa.Counts, sb.Counts))
		case sa.Value != sb.Value:
			out = append(out, fmt.Sprintf("%s: %g vs %g", name, sa.Value, sb.Value))
		}
	}
	for i := range b.Series {
		if lv := b.Series[i].LabelValue; onlyB[lv] != nil {
			out = append(out, b.seriesName(lv)+": only in B")
		}
	}
	return out
}
