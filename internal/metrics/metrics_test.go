package metrics

import (
	"slices"
	"testing"

	"ftmrmpi/internal/vtime"
)

// TestNilRegistryEndToEnd pins the disabled path's contract: a nil registry
// hands out nil instruments, every operation no-ops, CounterFunc never calls
// its function, and Snapshot is safe to call.
func TestNilRegistryEndToEnd(t *testing.T) {
	var r *Registry
	c := r.Counter("ftmr_x", "h", 0)
	if c != nil {
		t.Fatalf("nil registry returned non-nil counter")
	}
	c.Inc()
	c.Add(3)
	cl := r.CounterL("ftmr_x", "h", "tier", "pfs")
	if cl != nil {
		t.Fatalf("nil registry returned non-nil labeled counter")
	}
	cl.Inc()
	g := r.Gauge("ftmr_g", "h", 1)
	if g != nil {
		t.Fatalf("nil registry returned non-nil gauge")
	}
	g.Set(1)
	h := r.Histogram("ftmr_h", "h", 0, TaskSecondsBuckets)
	if h != nil {
		t.Fatalf("nil registry returned non-nil histogram")
	}
	h.Observe(0.5)
	r.CounterFunc("ftmr_f", "h", "rank", "0", func() float64 { t.Fatal("nil registry read a CounterFunc"); return 0 })
	snap := r.Snapshot()
	if snap.VTSeconds != 0 || len(snap.Families) != 0 {
		t.Fatalf("nil registry snapshot not zero: %+v", snap)
	}
}

// TestInstrumentGettersShareState pins getter idempotence: repeated calls for
// the same (name, rank) return instruments bound to one underlying series.
func TestInstrumentGettersShareState(t *testing.T) {
	r := New(vtime.NewSim())
	a := r.Counter("ftmr_c", "h", 3)
	b := r.Counter("ftmr_c", "h", 3)
	a.Inc()
	b.Add(2)
	if v, ok := r.Snapshot().Series("ftmr_c", "3"); !ok || v != 3 {
		t.Fatalf("shared counter series = %v,%v; want 3,true", v, ok)
	}

	g1 := r.Gauge("ftmr_gg", "h", 0)
	g2 := r.Gauge("ftmr_gg", "h", 0)
	g1.Set(5)
	g2.Set(6)
	if v, _ := r.Snapshot().Series("ftmr_gg", "0"); v != 6 {
		t.Fatalf("shared gauge = %v, want 6", v)
	}

	h1 := r.Histogram("ftmr_hh", "h", 0, []float64{1, 10})
	h2 := r.Histogram("ftmr_hh", "h", 0, []float64{1, 10})
	h1.Observe(0.5)
	h2.Observe(5)
	f := r.Snapshot().Family("ftmr_hh")
	if f == nil || f.Series[0].Count != 2 || f.Series[0].Sum != 5.5 {
		t.Fatalf("shared histogram = %+v", f)
	}
}

// TestWorldAndRankSeries pins the rank-label convention: negative rank is
// the unlabeled world series, others carry the decimal rank, and
// Snapshot.Total aggregates across all of them.
func TestWorldAndRankSeries(t *testing.T) {
	r := New(vtime.NewSim())
	r.Counter("ftmr_c", "h", -1).Add(10)
	r.Counter("ftmr_c", "h", 0).Add(1)
	r.Counter("ftmr_c", "h", 7).Add(2)
	snap := r.Snapshot()
	if v, ok := snap.Series("ftmr_c", ""); !ok || v != 10 {
		t.Fatalf("world series = %v,%v", v, ok)
	}
	if got := snap.Total("ftmr_c"); got != 13 {
		t.Fatalf("Total = %v, want 13", got)
	}
	if got := snap.Total("ftmr_absent"); got != 0 {
		t.Fatalf("Total of absent family = %v", got)
	}
	if RankLabel(-1) != "" || RankLabel(0) != "0" || RankLabel(12) != "12" {
		t.Fatalf("RankLabel convention broken")
	}
}

// TestSeriesSortOrder pins snapshot determinism: families lexical, series
// unlabeled first, then numeric label values in numeric order (rank 10 after
// rank 9), then everything else lexically after the numerics.
func TestSeriesSortOrder(t *testing.T) {
	r := New(vtime.NewSim())
	for _, rank := range []int{10, 2, -1, 9} {
		r.Counter("ftmr_b", "h", rank).Inc()
	}
	r.CounterL("ftmr_a", "h", "tier", "pfs").Inc()
	r.CounterL("ftmr_a", "h", "tier", "local-n0").Inc()
	snap := r.Snapshot()
	if snap.Families[0].Name != "ftmr_a" || snap.Families[1].Name != "ftmr_b" {
		t.Fatalf("family order = %s, %s", snap.Families[0].Name, snap.Families[1].Name)
	}
	var got []string
	for _, s := range snap.Families[1].Series {
		got = append(got, s.LabelValue)
	}
	want := []string{"", "2", "9", "10"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rank series order = %v, want %v", got, want)
		}
	}
	tiers := snap.Families[0].Series
	if tiers[0].LabelValue != "local-n0" || tiers[1].LabelValue != "pfs" {
		t.Fatalf("tier series order = %q, %q", tiers[0].LabelValue, tiers[1].LabelValue)
	}
	if !labelLess("5", "x") || labelLess("x", "5") {
		t.Fatalf("numerics must sort before non-numerics")
	}
}

// TestCounterFunc pins the read-at-snapshot series: every function on one
// series is summed in registration order with whatever was pushed to it, and
// each is read when Snapshot runs, not when it was registered.
func TestCounterFunc(t *testing.T) {
	r := New(vtime.NewSim())
	a, b := 1.0, 2.0
	r.CounterFunc("ftmr_f", "h", "rank", "0", func() float64 { return a })
	r.CounterFunc("ftmr_f", "h", "rank", "0", func() float64 { return b })
	r.CounterFunc("ftmr_f", "h", "rank", "1", func() float64 { return 10 })
	r.Counter("ftmr_f", "h", 0).Add(0.5)
	if v, _ := r.Snapshot().Series("ftmr_f", "0"); v != 3.5 {
		t.Fatalf("summed series = %v, want 3.5", v)
	}
	a, b = 5, 7
	snap := r.Snapshot()
	if v, _ := snap.Series("ftmr_f", "0"); v != 12.5 {
		t.Fatalf("series after the sources moved = %v, want 12.5 (read at snapshot)", v)
	}
	if got := snap.Total("ftmr_f"); got != 22.5 {
		t.Fatalf("Total = %v, want 22.5", got)
	}
	if f := snap.Family("ftmr_f"); f.Kind != KindCounter || f.Label != "rank" {
		t.Fatalf("family = %v/%s, want counter/rank", f.Kind, f.Label)
	}
}

// TestSnapshotIsDeepCopy pins immutability: mutating the registry after a
// snapshot must not change the snapshot.
func TestSnapshotIsDeepCopy(t *testing.T) {
	r := New(vtime.NewSim())
	c := r.Counter("ftmr_c", "h", 0)
	h := r.Histogram("ftmr_h", "h", 0, []float64{1})
	src := 4.0
	r.CounterFunc("ftmr_f", "h", "rank", "0", func() float64 { return src })
	c.Inc()
	h.Observe(0.5)
	snap := r.Snapshot()
	c.Add(100)
	h.Observe(0.5)
	src = 40
	if v, _ := snap.Series("ftmr_c", "0"); v != 1 {
		t.Fatalf("snapshot counter mutated: %v", v)
	}
	if v, _ := snap.Series("ftmr_f", "0"); v != 4 {
		t.Fatalf("snapshot CounterFunc value mutated: %v", v)
	}
	f := snap.Family("ftmr_h")
	if f.Series[0].Count != 1 || f.Series[0].Counts[0] != 1 {
		t.Fatalf("snapshot histogram mutated: %+v", f.Series[0])
	}
}

// TestConflictingRegistrationPanics pins that re-registering a family with a
// different kind or label key is a programming error.
func TestConflictingRegistrationPanics(t *testing.T) {
	r := New(vtime.NewSim())
	r.Counter("ftmr_c", "h", 0)
	r.Gauge("ftmr_g", "h", 0)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"kind", func() { r.Gauge("ftmr_c", "h", 0) }},
		{"label", func() { r.CounterL("ftmr_c", "h", "tier", "pfs") }},
		{"CounterFunc on a gauge", func() { r.CounterFunc("ftmr_g", "h", "rank", "0", func() float64 { return 0 }) }},
		{"bad name", func() { r.Counter("bad name", "h", 0) }},
		{"bad label key", func() { r.CounterL("ftmr_d", "h", "bad key", "x") }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: conflicting registration did not panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// TestSanitizeName pins the user-counter name mapping.
func TestSanitizeName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", "_"},
		{"words", "words"},
		{"lines read", "lines_read"},
		{"9lives", "_9lives"},
		{"a-b.c", "a_b_c"},
		{"ok_name:x", "ok_name:x"},
		{"héllo", "h_llo"},
	} {
		if got := SanitizeName(tc.in); got != tc.want {
			t.Errorf("SanitizeName(%q) = %q, want %q", tc.in, got, tc.want)
		}
		if !validName(SanitizeName(tc.in)) {
			t.Errorf("SanitizeName(%q) not a valid name", tc.in)
		}
	}
}

// TestDiff pins the one snapshot comparison (ftmr-trace diff A.om B.om): one
// line per difference, in A's order then B's extras, and none for equal
// snapshots.
func TestDiff(t *testing.T) {
	base := func() Snapshot {
		return Snapshot{VTSeconds: 1.5, Families: []FamilySnapshot{
			{Name: "ftmr_aborted", Kind: KindCounter, Series: []SeriesSnapshot{{Value: 1}}},
			{Name: "ftmr_mapped", Kind: KindCounter, Label: "rank", Series: []SeriesSnapshot{
				{LabelValue: "0", Value: 120}, {LabelValue: "1", Value: 80}}},
			{Name: "ftmr_task_seconds", Kind: KindHistogram, Label: "rank", Buckets: []float64{0.1},
				Series: []SeriesSnapshot{{LabelValue: "0", Counts: []uint64{3, 1}, Sum: 0.5, Count: 4}}},
		}}
	}
	for _, c := range []struct {
		name string
		edit func(b *Snapshot)
		want []string
	}{
		{"equal", func(b *Snapshot) {}, nil},
		{"virtual time", func(b *Snapshot) { b.VTSeconds = 2 }, []string{"virtual time: 1.5 vs 2"}},
		{"family only in A", func(b *Snapshot) { b.Families = b.Families[1:] }, []string{"ftmr_aborted: only in A"}},
		{"family only in B", func(b *Snapshot) {
			b.Families = append(b.Families, FamilySnapshot{Name: "ftmr_new", Kind: KindGauge})
		}, []string{"ftmr_new: only in B"}},
		{"kind", func(b *Snapshot) { b.Families[0].Kind = KindGauge },
			[]string{"ftmr_aborted: kind/label mismatch (counter/ vs gauge/)"}},
		{"label key", func(b *Snapshot) { b.Families[1].Label = "tier" },
			[]string{"ftmr_mapped: kind/label mismatch (counter/rank vs counter/tier)"}},
		{"values, unlabeled and labeled", func(b *Snapshot) {
			b.Families[0].Series[0].Value = 2
			b.Families[1].Series[1].Value = 81
		}, []string{"ftmr_aborted: 1 vs 2", `ftmr_mapped{rank="1"}: 80 vs 81`}},
		{"series on one side only", func(b *Snapshot) {
			b.Families[1].Series[0].LabelValue = "7"
		}, []string{`ftmr_mapped{rank="0"}: only in A`, `ftmr_mapped{rank="7"}: only in B`}},
		{"histogram sum", func(b *Snapshot) { b.Families[2].Series[0].Sum = 0.75 },
			[]string{`ftmr_task_seconds{rank="0"}: count/sum 4/0.5 vs 4/0.75`}},
		{"histogram buckets alone", func(b *Snapshot) { b.Families[2].Series[0].Counts = []uint64{2, 2} },
			[]string{`ftmr_task_seconds{rank="0"}: bucket counts [3 1] vs [2 2]`}},
	} {
		b := base()
		c.edit(&b)
		if got := Diff(base(), b); !slices.Equal(got, c.want) {
			t.Errorf("%s: Diff = %q, want %q", c.name, got, c.want)
		}
	}
}
