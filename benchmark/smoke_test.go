package benchmark

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload, the traced repetitions and the layer probes
// at smoke size in this process and validates the emitted document.
func TestSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "smoke.json")
	var stdout, stderr bytes.Buffer
	if code := Main([]string{"-smoke", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("ftmr-perf -smoke exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	doc, err := loadDoc(out)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Claim != nil {
		t.Errorf("the benchmark claims %q; it must claim nothing", *doc.Claim)
	}
	if len(doc.Results) != 4 || len(doc.Workloads) != 4 {
		t.Fatalf("%d results for %d workloads, want 4", len(doc.Results), len(doc.Workloads))
	}
	if len(doc.EndToEnd) != 6 || len(doc.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 6 and at most 128", len(doc.EndToEnd), len(doc.PerLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]Metric(nil), doc.EndToEnd...), doc.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) || m.Clock == "" || (m.Better != "lower" && m.Better != "higher") || m.Moves == "" {
			t.Errorf("metric %+v lacks a unit, clock, direction or target", m)
		}
	}
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, r := range doc.Results {
		if r.RunsFailed != 0 || r.RunsTotal != 2 {
			t.Errorf("%s: %d of %d runs failed, want 0 of 2: %v", r.Name, r.RunsFailed, r.RunsTotal, r.Failures)
		}
		for _, m := range doc.EndToEnd {
			if s, ok := r.EndToEnd[m.Name]; !ok || s.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", r.Name, m.Name, s.Median)
			}
		}
		for _, m := range doc.PerLayer {
			_, traced := r.PerLayer[m.Name]
			_, probed := doc.Probes[m.Name]
			if traced == probed {
				t.Errorf("%s: per-layer metric %s: in the traced run %v, among the probes %v; want exactly one", r.Name, m.Name, traced, probed)
			}
		}
		if r.Name != "wc-observed" {
			continue
		}
		for _, s := range []string{"trace_write", "trace_read", "trace_analyze", "metrics_io", "introspect_io"} {
			if r.PerLayer["span."+s+"_s"] <= 0 {
				t.Errorf("wc-observed: sink span %s is empty", s)
			}
		}
	}

	// The document compares equal to itself, and a slower copy is caught.
	if code := compareDocs(doc, doc, new(bytes.Buffer)); code != 0 {
		t.Errorf("a document compared with itself exits %d", code)
	}
	b, _ := json.Marshal(doc)
	slow := new(Doc)
	if err := json.Unmarshal(b, slow); err != nil {
		t.Fatal(err)
	}
	s := slow.Results[0].EndToEnd["wall_s"]
	s.Median, s.Min, s.Max = 2*s.Median, 2*s.Min, 2*s.Max
	slow.Results[0].EndToEnd["wall_s"] = s
	var report bytes.Buffer
	if code := compareDocs(doc, slow, &report); code != 1 || !bytes.Contains(report.Bytes(), []byte("worse")) {
		t.Errorf("a doubled wall_s exits %d:\n%s", code, report.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, in step
// with the tables the program reports by.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []WorkloadInfo
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 || spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("size %d, run_seconds %d, paths %v", len(b), spec.RunSeconds, spec.Paths)
	}
	if len(spec.Workloads) != len(Workloads) || len(spec.EndToEnd) != len(EndToEnd) || len(spec.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer), len(Workloads), len(EndToEnd), len(PerLayer))
	}
	for i, w := range Workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || len(got.Why) > 200 || got.Why == "" {
			t.Errorf("workload %d is %+v, want %s with a why of at most 200 characters", i, got, w.Name)
		}
	}
	check := func(got metric, want Metric, bound bool) {
		if got.Name != want.Name || got.Unit != want.Unit || got.Better != want.Better || (bound && got.Bound != want.Bound) {
			t.Errorf("BENCHMARK.json has %+v, the program has %s %s %s %v", got, want.Name, want.Unit, want.Better, want.Bound)
		}
	}
	for i, m := range EndToEnd {
		check(spec.EndToEnd[i], m, true)
	}
	for i, m := range PerLayer {
		check(spec.PerLayer[i], m, false)
	}
}

func TestVerdict(t *testing.T) {
	m := Metric{Name: "wall_s", Better: "lower", Bound: 0.10}
	st := func(vals ...float64) Stat { return newStat(vals) }
	for _, tc := range []struct {
		name     string
		m        Metric
		old, new Stat
		want     string
	}{
		{"steady", m, st(1.00, 1.01, 1.02), st(1.00, 1.02, 1.03), "same"},
		{"slower", m, st(1.00, 1.01, 1.02), st(1.20, 1.21, 1.22), "worse"},
		{"faster", m, st(1.00, 1.01, 1.02), st(0.80, 0.81, 0.82), "better"},
		{"noisy", m, st(0.90, 1.00, 1.30), st(0.95, 1.02, 1.25), "unresolved"},
		{"noisy but disjoint", m, st(1.00, 1.10, 1.30), st(0.80, 0.85, 0.99), "better"},
		{"under the floor", Metric{Better: "lower", Bound: 0.10, Floor: 0.05}, st(0.040, 0.041, 0.042), st(0.050, 0.051, 0.052), "same"},
		{"higher is better", Metric{Better: "higher", Bound: 0.10}, st(100, 101, 102), st(80, 81, 82), "worse"},
		{"best of n ignores slow runs", Metric{Better: "lower", Bound: 0.10, Best: true}, st(1.00, 1.05, 1.10), st(1.01, 1.30, 1.35), "unresolved"},
		{"best of n, slower", Metric{Better: "lower", Bound: 0.10, Best: true}, st(1.00, 1.30, 1.35), st(1.20, 1.21, 1.22), "worse"},
	} {
		if got := verdict(tc.m, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCPUByLayer decodes a real profile of this process and checks the
// attribution rule on hand-made stacks.
func TestCPUByLayer(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
		x++
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.funcs {
			found = found || fn == "ftmrmpi/benchmark.TestCPUByLayer"
		}
	}
	if len(samples) > 0 && !found {
		t.Errorf("%d samples, none through this test function", len(samples))
	}
	for _, tc := range []struct {
		want  string
		stack []string
	}{
		{"mpi", []string{"runtime.memmove", "ftmrmpi/internal/mpi.(*Comm).Send", "ftmrmpi/internal/core.(*runner).run"}},
		{"critpath", []string{"ftmrmpi/internal/trace/critpath.Analyze", "ftmrmpi/benchmark.(*repRun).sinks"}},
		{"vtime", []string{"ftmrmpi/internal/cluster.(*Cluster).CoreOf", "ftmrmpi/internal/vtime.(*Sim).Run"}},
		{"go_gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"go_other", []string{"runtime.futex", "runtime.schedule"}},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}
