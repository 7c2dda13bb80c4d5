package metrics

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ftmrmpi/internal/vtime"
)

// goldenRegistry builds a small, fully deterministic registry exercising
// every exporter shape: world and per-rank counter series, a gauge, a
// tier-labeled counter family, a user counter, and a histogram with an
// occupied +Inf bucket and a non-integral sum.
func goldenRegistry() *Registry {
	sim := vtime.NewSim()
	sim.Spawn("clock", func(p *vtime.Proc) { p.Sleep(1500 * time.Millisecond) })
	sim.Run()
	r := New(sim)
	r.Counter("ftmr_records_mapped", "Input records mapped.", 0).Add(120)
	r.Counter("ftmr_records_mapped", "Input records mapped.", 1).Add(80)
	r.Counter("ftmr_jobs_aborted", "Jobs that ended aborted.", -1).Add(1)
	r.Gauge("ftmr_lb_fit_slope_seconds_per_byte", "Fitted cost-model slope.", 0).Set(2.5e-09)
	r.CounterL("ftmr_storage_torn_writes", "Torn writes injected.", "tier", "pfs").Add(3)
	r.CounterL("ftmr_storage_torn_writes", "Torn writes injected.", "tier", "local-n0").Add(1)
	r.Counter("user_"+SanitizeName("lines read"), "User counter lines read.", 1).Add(42)
	h := r.Histogram("ftmr_map_task_seconds", "Map task latency.", 0, []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.05, 0.25} {
		h.Observe(v)
	}
	return r
}

// TestGoldenOpenMetrics pins the exposition byte-for-byte against the
// committed fixture. Regenerate deliberately with
// FTMR_UPDATE_GOLDEN=1 go test ./internal/metrics -run TestGoldenOpenMetrics
// and review the diff like any other code change.
func TestGoldenOpenMetrics(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, goldenRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/golden.om"
	if os.Getenv("FTMR_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			path, buf.Bytes(), want)
	}
}

// TestOpenMetricsRoundTrip pins write→parse→write byte identity and that the
// parsed snapshot structurally equals the original.
func TestOpenMetricsRoundTrip(t *testing.T) {
	snap := goldenRegistry().Snapshot()
	var first bytes.Buffer
	if err := WriteOpenMetrics(&first, snap); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseOpenMetrics(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, snap) {
		t.Fatalf("parse did not reconstruct the snapshot:\n got %+v\nwant %+v", parsed, snap)
	}
	var second bytes.Buffer
	if err := WriteOpenMetrics(&second, parsed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("write→parse→write not byte-identical:\n--- first ---\n%s\n--- second ---\n%s",
			first.Bytes(), second.Bytes())
	}
}

// TestParseVirtualTime pins that the synthetic gauge populates VTSeconds and
// does not surface as a family.
func TestParseVirtualTime(t *testing.T) {
	snap := goldenRegistry().Snapshot()
	if snap.VTSeconds != 1.5 {
		t.Fatalf("snapshot VT = %v, want 1.5", snap.VTSeconds)
	}
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, snap); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseOpenMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.VTSeconds != 1.5 {
		t.Fatalf("parsed VT = %v, want 1.5", parsed.VTSeconds)
	}
	if parsed.Family(vtFamily) != nil {
		t.Fatalf("synthetic VT gauge leaked into Families")
	}
}

// TestFormatValue pins the float rendering the byte-exactness depends on.
func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{42, "42"},
		{-1, "-1"},
		{2.5e-09, "2.5e-09"},
		{0.07, "0.07"},
		{1.0 / 3.0, "0.3333333333333333"},
	} {
		if got := formatValue(tc.v); got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

// TestParseErrors pins the parser's error taxonomy on malformed input.
func TestParseErrors(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"no EOF", "# TYPE ftmr_x counter\nftmr_x_total 1\n", "missing # EOF"},
		{"content after EOF", "# EOF\nftmr_x_total 1\n", "content after # EOF"},
		{"unknown type", "# TYPE ftmr_x summary\n", "unknown type"},
		{"bad comment", "# FOO bar\n", "unrecognized comment"},
		{"orphan sample", "ftmr_x_total 1\n# EOF\n", "no preceding # TYPE"},
		{"bad value", "# TYPE ftmr_x counter\nftmr_x_total zebra\n# EOF\n", "bad value"},
		{"malformed sample", "garbage\n# EOF\n", "malformed sample"},
		{"bad label", `# TYPE ftmr_x counter` + "\n" + `ftmr_x_total{rank=3} 1` + "\n# EOF\n", "malformed label"},
		{"unterminated labels", `# TYPE ftmr_x counter` + "\n" + `ftmr_x_total{rank="3" 1` + "\n# EOF\n", "unterminated labels"},
		{"missing le", "# TYPE ftmr_x histogram\nftmr_x_bucket 1\n# EOF\n", "missing le label"},
		{"kind mismatch", "# TYPE ftmr_x gauge\nftmr_x_sum 1\n# EOF\n", "does not match"},
		{"two series labels", `# TYPE ftmr_x counter` + "\n" + `ftmr_x_total{rank="3",tier="pfs"} 1` + "\n# EOF\n", "more than one series label"},
		{"two le labels", `# TYPE ftmr_x histogram` + "\n" + `ftmr_x_bucket{le="1",le="2"} 1` + "\n# EOF\n", "more than one series label or le label"},
		{"buckets missing", "# TYPE ftmr_x histogram\n" + `ftmr_x_bucket{le="1"} 1` + "\n" + `ftmr_x_bucket{le="+Inf"} 1` + "\n" +
			`ftmr_x_bucket{rank="1",le="+Inf"} 1` + "\n# EOF\n", `series "1" has 1 bucket lines for 1 bounds and +Inf`},
	} {
		_, err := ParseOpenMetrics(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzParseOpenMetrics feeds arbitrary bytes to the exposition parser: it
// must never panic, and whatever it accepts must be a snapshot the exporter
// can render (ftmr-trace summarize renders what it parsed), in output proportional to
// the input. Memory is bounded by the input: a line is capped at 1 MiB and a
// string is kept only per family, series and bucket bound.
func FuzzParseOpenMetrics(f *testing.F) {
	for _, fixture := range []string{"testdata/golden.om", "testdata/selftest.om"} {
		data, err := os.ReadFile(fixture)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("# EOF\n"))
	f.Add([]byte("# TYPE ftmr_x histogram\n" + `ftmr_x_bucket{le="+Inf",rank="2"} 3` + "\nftmr_x_count{rank=\"2\"} 3\nftmr_x_sum 0.5\n# EOF\n"))
	f.Add([]byte("# TYPE ftmr_x histogram\n" + `ftmr_x_bucket{le="1"} 1` + "\n" + `ftmr_x_bucket{le="0.5"} NaN` + "\n# EOF\n"))
	f.Add([]byte("# TYPE a counter\n# TYPE a_total gauge\na_total_total{=\"\"} -1e400\na_total 0x1p-2\n# EOF\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ParseOpenMetrics(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteOpenMetrics(&out, snap); err != nil {
			t.Fatalf("rendering an accepted snapshot: %v", err)
		}
		if out.Len() > 64*(len(data)+256) {
			t.Fatalf("%d bytes of input rendered as %d", len(data), out.Len())
		}
	})
}

// rankedExposition renders a registry of w ranks' series: a counter and a
// gauge per rank, a world counter, and a per-rank histogram of four bounds.
func rankedExposition(t testing.TB, w int) []byte {
	r := New(vtime.NewSim())
	r.Counter("ftmr_jobs_aborted", "Jobs that ended aborted.", -1).Add(1)
	for rank := 0; rank < w; rank++ {
		r.Counter("ftmr_records_mapped", "Input records mapped.", rank).Add(float64(100 + rank))
		r.Gauge("ftmr_lb_fit_slope_seconds_per_byte", "Fitted cost-model slope.", rank).Set(2.5e-09)
		h := r.Histogram("ftmr_map_task_seconds", "Map task latency.", rank, []float64{0.001, 0.01, 0.1, 1})
		h.Observe(float64(rank) / 1000)
	}
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseOpenMetricsAllocsPerSeries is the parser's allocation gate (make
// alloc-gate): a series is a value in its family's Series, which is sized
// once, so a series costs a bounded number of objects: the string of its
// label value and, for a histogram, its bucket counts. A rank of
// rankedExposition has three series, one a histogram: four objects, and a
// little for the growth of the one scratch slice every family reuses.
// Counted as the growth from 64 to 256 ranks, which cancels the parse's
// fixed cost.
func TestParseOpenMetricsAllocsPerSeries(t *testing.T) {
	allocs := func(w int) float64 {
		text := rankedExposition(t, w)
		return testing.AllocsPerRun(5, func() {
			if _, err := ParseOpenMetrics(bytes.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
	}
	perRank := (allocs(256) - allocs(64)) / (256 - 64)
	t.Logf("%.2f objects a rank of three series", perRank)
	if perRank > 4.5 {
		t.Errorf("parsing allocated %.2f objects a rank of three series, want at most 4.5", perRank)
	}
}

// A family's lines may come back after another family's, and its series in
// any order: each series keeps its last value, and a family's series are in
// the order they first appear.
func TestParseOpenMetricsAnyOrder(t *testing.T) {
	text := `# TYPE a gauge
# TYPE b counter
a{rank="3"} 1
b_total 2
a{rank="1"} 4
a{rank="3"} 5
a 7
b_total{rank="0"} 8
# EOF
`
	got, err := ParseOpenMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := Snapshot{Families: []FamilySnapshot{
		{Name: "a", Kind: KindGauge, Label: "rank", Series: []SeriesSnapshot{
			{LabelValue: "3", Value: 5}, {LabelValue: "1", Value: 4}, {LabelValue: "", Value: 7}}},
		{Name: "b", Kind: KindCounter, Label: "rank", Series: []SeriesSnapshot{
			{LabelValue: "", Value: 2}, {LabelValue: "0", Value: 8}}},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed\n%+v\nwant\n%+v", got, want)
	}
}
