// Package metrics implements the simulator's live metrics plane: a
// low-overhead instrument registry (counters, gauges, log-linear-bucket
// histograms, and counters read from a function) whose series are per-rank
// (or per-tier) and aggregatable across the world, frozen into an immutable
// Snapshot when a run ends, rendered as OpenMetrics text, and evaluated
// against SLOs by the health engine.
//
// Like the trace package, the registry is optional and nil-safe end to end:
// a nil *Registry hands out nil instruments, and every instrument operation
// no-ops on a nil receiver, so a disabled run pays exactly one predictable
// branch per instrumented site (enforced by internal/obs TestOverheadGate).
//
// The simulator is single-threaded by construction (vtime runs exactly one
// process at a time), so the registry uses no locks; determinism follows
// from never touching the wall clock and from sorting families and series
// on snapshot.
package metrics

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ftmrmpi/internal/vtime"
)

// Kind distinguishes the three instrument types a family can hold.
type Kind int

// Instrument kinds, in the order they render in OpenMetrics TYPE lines.
const (
	// KindCounter is a monotonically increasing float64.
	KindCounter Kind = iota
	// KindGauge is a settable float64.
	KindGauge
	// KindHistogram is a bucketed distribution with sum and count.
	KindHistogram
)

// String returns the OpenMetrics TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// family is one named metric with a single label key and many series.
type family struct {
	name    string
	help    string
	kind    Kind
	label   string    // label key; every series carries label=value, "" value = unlabeled
	buckets []float64 // histogram upper bounds (exclusive of +Inf); nil otherwise
	series  map[string]*series
}

// series holds the live state of one (family, label value) pair.
type series struct {
	val    float64          // counter / gauge value
	fns    []func() float64 // CounterFunc readers, added to val at snapshot in registration order
	counts []uint64         // histogram per-bucket counts, len(buckets)+1 (last = +Inf)
	sum    float64          // histogram sum of observations
	n      uint64           // histogram observation count
}

// Registry is the root of the metrics plane. Create one with New and attach
// it to a cluster before ranks launch; a nil Registry disables all
// instrumentation at one-branch cost.
type Registry struct {
	sim      *vtime.Sim
	families map[string]*family
}

// New returns an empty registry stamping snapshots with sim's virtual time.
func New(sim *vtime.Sim) *Registry {
	return &Registry{sim: sim, families: make(map[string]*family)}
}

// RankLabel returns the label value used for a per-rank series: the decimal
// rank, or "" (an unlabeled, world-scoped series) for negative ranks.
func RankLabel(rank int) string {
	if rank < 0 {
		return ""
	}
	return strconv.Itoa(rank)
}

// validName reports whether s is a legal OpenMetrics metric or label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// SanitizeName maps an arbitrary string (e.g. a user counter name from
// TaskContext.AddCounter) to a legal metric-name fragment: every illegal
// rune becomes '_', and a leading digit gains a '_' prefix. An empty input
// yields "_".
func SanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// getFamily returns the named family, creating it on first use. Conflicting
// re-registration (same name, different kind or label key) panics: it is a
// programming error, not a runtime condition.
func (r *Registry) getFamily(name, help string, kind Kind, label string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	if !validName(label) {
		panic(fmt.Sprintf("metrics: invalid label key %q for metric %q", label, name))
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, label: label, buckets: buckets,
			series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind || f.label != label {
		panic(fmt.Sprintf("metrics: conflicting registration of %q (%v/%s vs %v/%s)",
			name, f.kind, f.label, kind, label))
	}
	return f
}

// getSeries returns the family's series for the label value, creating it on
// first use.
func (f *family) getSeries(lv string) *series {
	s, ok := f.series[lv]
	if !ok {
		s = &series{}
		if f.kind == KindHistogram {
			s.counts = make([]uint64, len(f.buckets)+1)
		}
		f.series[lv] = s
	}
	return s
}

// Counter returns the counter series for (name, rank). Negative rank yields
// the unlabeled world series; otherwise the series carries rank="<rank>".
// Repeated calls return an instrument bound to the same state. Nil-safe: a
// nil registry returns a nil counter whose operations no-op.
func (r *Registry) Counter(name, help string, rank int) *Counter {
	if r == nil {
		return nil
	}
	return r.CounterL(name, help, "rank", RankLabel(rank))
}

// CounterL returns the counter series for (name, labelKey=labelVal). All
// series of one family must share the label key. Nil-safe.
func (r *Registry) CounterL(name, help, labelKey, labelVal string) *Counter {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, KindCounter, labelKey, nil)
	return &Counter{s: f.getSeries(labelVal)}
}

// CounterFunc makes fn a reader of the counter series for (name,
// labelKey=labelVal): Snapshot reads fn when it runs and adds its value to
// the series. A count that another accumulator already holds is registered
// this way instead of being pushed twice. Several functions on one series
// (a rank that runs several jobs) are summed in registration order.
// Nil-safe: a nil registry never calls fn.
func (r *Registry) CounterFunc(name, help, labelKey, labelVal string, fn func() float64) {
	if r == nil {
		return
	}
	s := r.getFamily(name, help, KindCounter, labelKey, nil).getSeries(labelVal)
	s.fns = append(s.fns, fn)
}

// Gauge returns the gauge series for (name, rank); negative rank yields the
// unlabeled world series. Nil-safe.
func (r *Registry) Gauge(name, help string, rank int) *Gauge {
	return r.GaugeL(name, help, "rank", RankLabel(rank))
}

// GaugeL returns the gauge series for (name, labelKey=labelVal). All series
// of one family share the same label key.
func (r *Registry) GaugeL(name, help, labelKey, labelVal string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, KindGauge, labelKey, nil)
	return &Gauge{s: f.getSeries(labelVal)}
}

// Histogram returns the histogram series for (name, rank) with the given
// upper bucket bounds (ascending; a +Inf bucket is implicit). All series of
// one family share the bounds of the first registration. Negative rank
// yields the unlabeled world series. Nil-safe.
func (r *Registry) Histogram(name, help string, rank int, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, KindHistogram, "rank", buckets)
	return &Histogram{f: f, s: f.getSeries(RankLabel(rank))}
}

// Counter is a monotonically increasing metric series. The zero of the
// metrics plane: Add on the hot path is one pointer check plus one float
// add. A nil *Counter (from a nil registry) no-ops.
type Counter struct{ s *series }

// Inc adds 1. Nil-safe.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.s.val++
}

// Add adds v (which should be non-negative; monotonicity is the caller's
// contract). Nil-safe.
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	c.s.val += v
}

// Gauge is a settable metric series. A nil *Gauge no-ops.
type Gauge struct{ s *series }

// Set replaces the gauge value. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.s.val = v
}

// Histogram is a bucketed distribution series. Observe costs one binary
// search over the bucket bounds. A nil *Histogram no-ops.
type Histogram struct {
	f *family
	s *series
}

// Observe records v into the series: the first bucket whose upper bound is
// >= v (Prometheus "le" semantics), or the +Inf bucket. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.s.counts[bucketIndex(h.f.buckets, v)]++
	h.s.sum += v
	h.s.n++
}

// sortedFamilyNames returns the registry's family names in lexical order.
func (r *Registry) sortedFamilyNames() []string {
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// sortedSeriesLabels returns the family's label values, unlabeled first,
// then numerically when all-numeric (so rank 10 follows rank 9), then
// lexically.
func (f *family) sortedSeriesLabels() []string {
	labels := make([]string, 0, len(f.series))
	for lv := range f.series {
		labels = append(labels, lv)
	}
	sort.Slice(labels, func(i, j int) bool { return labelLess(labels[i], labels[j]) })
	return labels
}

// labelLess orders label values: "" first, numeric values numerically, and
// everything else lexically (numerics before non-numerics).
func labelLess(a, b string) bool {
	if a == "" || b == "" {
		return a == "" && b != ""
	}
	ai, aerr := strconv.Atoi(a)
	bi, berr := strconv.Atoi(b)
	switch {
	case aerr == nil && berr == nil:
		return ai < bi
	case aerr == nil:
		return true
	case berr == nil:
		return false
	}
	return a < b
}
