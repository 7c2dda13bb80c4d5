package metrics

import "time"

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

// Snapshot runs the OnSample hooks (in registration order) and returns a
// deep copy of every family, stamped with the current virtual time.
// Families are sorted by name and series unlabeled-first-then-numerically,
// so identical registry states yield identical snapshots regardless of map
// iteration order. Nil-safe: a nil registry yields a zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	for _, fn := range r.hooks {
		fn()
	}
	snap := Snapshot{Families: make([]FamilySnapshot, 0, len(r.families))}
	if r.sim != nil {
		snap.VTSeconds = r.sim.Seconds()
	}
	for _, name := range r.sortedFamilyNames() {
		f := r.families[name]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, Label: f.label}
		if f.kind == KindHistogram {
			fs.Buckets = append([]float64(nil), f.buckets...)
		}
		for _, lv := range f.sortedSeriesLabels() {
			s := f.series[lv]
			ss := SeriesSnapshot{LabelValue: lv, Value: s.val, Sum: s.sum, Count: s.n}
			if s.counts != nil {
				ss.Counts = append([]uint64(nil), s.counts...)
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

// Sampler takes registry snapshots on a fixed virtual-time cadence while
// the simulation still has other live events, retaining every snapshot in
// memory. Create one with StartSampler before Sim.Run and call Final after
// Run returns.
type Sampler struct {
	reg   *Registry
	snaps []Snapshot
}

// StartSampler arms an observer ticker (vtime.Sim.Every) on the registry's
// simulation: every interval of virtual time it takes a snapshot, for as
// long as the simulation has other work. Nil-safe: a nil registry yields a
// nil sampler whose methods no-op.
func StartSampler(reg *Registry, every time.Duration) *Sampler {
	if reg == nil || reg.sim == nil || every <= 0 {
		return nil
	}
	s := &Sampler{reg: reg}
	reg.sim.Every(every, func() { s.snaps = append(s.snaps, reg.Snapshot()) })
	return s
}

// Final appends one last snapshot at the current virtual time (call it
// after Sim.Run returns) and returns every snapshot taken, in order.
// Nil-safe: a nil sampler returns nil.
func (s *Sampler) Final() []Snapshot {
	if s == nil {
		return nil
	}
	s.snaps = append(s.snaps, s.reg.Snapshot())
	return s.snaps
}

// Count returns the number of snapshots taken so far. Nil-safe.
func (s *Sampler) Count() int {
	if s == nil {
		return 0
	}
	return len(s.snaps)
}
