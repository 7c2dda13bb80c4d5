package metrics

import (
	"bytes"
	"flag"
	"reflect"
	"strings"
	"testing"

	"ftmrmpi/internal/vtime"
)

// healthRegistry builds a registry with known totals so every indicator is
// computable by hand: busy = 10s main + 4s iowait + 1s net = 15s,
// ckpt = 0.3s write + 0.2s drain + 0.25s copier CPU = 0.75s → 5% overhead;
// copier share = 0.25/10.25; worst recovery = 3s (rank 1); shuffle skew =
// 300/150 = 2.
func healthRegistry() *Registry {
	r := New(vtime.NewSim())
	r.Counter(MCPUMain, "h", 0).Add(6)
	r.Counter(MCPUMain, "h", 1).Add(4)
	r.Counter(MIOWait, "h", 0).Add(4)
	r.Counter(MNetWait, "h", 0).Add(1)
	r.Counter(MCPUCopier, "h", 0).Add(0.25)
	r.Counter(MCopierIO, "h", 0).Add(2)
	r.Counter(MCkptWriteWait, "h", 0).Add(0.3)
	r.Counter(MCkptDrainWait, "h", 0).Add(0.2)
	r.Counter(MRecoverySeconds, "h", 0).Add(1)
	r.Counter(MRecoverySeconds, "h", 1).Add(3)
	r.Counter(MRecoveryInit, "h", 1).Add(0.5)
	r.Counter(MRecoveryLoad, "h", 1).Add(1)
	r.Counter(MRecoverySkip, "h", 1).Add(0.75)
	r.Counter(MRecoveryReprocess, "h", 1).Add(1.75)
	r.Counter(MShuffleBytes, "h", 0).Add(300)
	r.Counter(MShuffleBytes, "h", 1).Add(0)
	return r
}

// find returns the named indicator or fails the test.
func find(t *testing.T, h Health, name string) Indicator {
	t.Helper()
	for _, in := range h.Indicators {
		if in.Name == name {
			return in
		}
	}
	t.Fatalf("indicator %q missing from %+v", name, h)
	return Indicator{}
}

// TestEvaluateIndicators pins each derived quantity against hand-computed
// values, including that copier I/O is excluded from the overhead numerator.
func TestEvaluateIndicators(t *testing.T) {
	h := Evaluate(healthRegistry().Snapshot(), DefaultSLO())
	ck := find(t, h, "ckpt_overhead_fraction")
	if got, want := ck.Value, 0.75/15.0; got != want {
		t.Fatalf("overhead = %v, want %v (copier I/O must be excluded)", got, want)
	}
	if !strings.Contains(ck.Detail, "copier I/O overlapped") {
		t.Fatalf("overhead detail should report overlapped copier I/O: %q", ck.Detail)
	}
	if got := find(t, h, "recovery_seconds_worst_rank").Value; got != 3 {
		t.Fatalf("worst recovery = %v, want 3 (max per rank, not total)", got)
	}
	if got, want := find(t, h, "copier_cpu_share").Value, 0.25/10.25; got != want {
		t.Fatalf("copier share = %v, want %v", got, want)
	}
	if got := find(t, h, "shuffle_byte_skew").Value; got != 2 {
		t.Fatalf("shuffle skew = %v, want 2 (max 300 / mean 150)", got)
	}
	if h.Breached() {
		t.Fatalf("default SLO breached on healthy synthetic data: %+v", h)
	}
	if h.Degraded {
		t.Fatalf("clean run reported degraded")
	}
}

// TestEvaluateBreaches pins gate semantics: a tightened bound breaches, a
// negative bound never does, and zero is a strict bound.
func TestEvaluateBreaches(t *testing.T) {
	snap := healthRegistry().Snapshot()
	slo := DefaultSLO()
	slo.MaxCkptOverhead = 0.01 // actual is 5%
	h := Evaluate(snap, slo)
	if !find(t, h, "ckpt_overhead_fraction").Breached || !h.Breached() {
		t.Fatalf("tight overhead bound did not breach: %+v", h)
	}
	slo.MaxCkptOverhead = -1
	h = Evaluate(snap, slo)
	if find(t, h, "ckpt_overhead_fraction").Breached {
		t.Fatalf("report-only (negative) bound breached")
	}
	// Zero bound is strict: any positive value breaches, an exactly-zero
	// value does not.
	slo = SLO{MaxQuarantines: 0, MaxCkptOverhead: -1, MaxRecoverySeconds: -1,
		MaxShuffleSkew: -1, MaxCopierShare: -1, MaxMissingRanks: -1}
	if Evaluate(snap, slo).Breached() {
		t.Fatalf("zero quarantines breached a zero bound")
	}
	r := healthRegistry()
	r.Counter(MCkptQuarantines, "h", 0).Inc()
	if !Evaluate(r.Snapshot(), slo).Breached() {
		t.Fatalf("one quarantine passed a zero bound")
	}
}

// TestDegradedMarkers pins the degraded flag: missing ranks, quarantines, or
// failed ranks mark the run degraded without breaching report-only bounds.
func TestDegradedMarkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		bump func(*Registry)
	}{
		{"missing ranks", func(r *Registry) { r.Gauge(MMissingRanks, "h", -1).Set(1) }},
		{"quarantines", func(r *Registry) { r.Counter(MCkptQuarantines, "h", 0).Inc() }},
		{"failed ranks", func(r *Registry) { r.Gauge(MFailedRanks, "h", -1).Set(2) }},
	} {
		r := healthRegistry()
		tc.bump(r)
		h := Evaluate(r.Snapshot(), DefaultSLO())
		if !h.Degraded {
			t.Errorf("%s: run not marked degraded", tc.name)
		}
		if h.Breached() {
			t.Errorf("%s: degradation marker breached a report-only default bound", tc.name)
		}
	}
}

// TestEvaluateEmptySnapshot pins that an empty snapshot evaluates cleanly
// (all ratios guard division by zero).
func TestEvaluateEmptySnapshot(t *testing.T) {
	h := Evaluate(Snapshot{}, DefaultSLO())
	if h.Breached() || h.Degraded {
		t.Fatalf("empty snapshot unhealthy: %+v", h)
	}
	for _, in := range h.Indicators {
		if in.Value != 0 {
			t.Fatalf("indicator %s nonzero on empty snapshot: %v", in.Name, in.Value)
		}
	}
}

// TestHealthRender pins the report shape: one line per indicator, verdict
// column, and the trailing gate line.
func TestHealthRender(t *testing.T) {
	r := healthRegistry()
	r.Counter(MCkptQuarantines, "h", 0).Inc()
	h := Evaluate(r.Snapshot(), DefaultSLO())
	var buf bytes.Buffer
	h.Render(&buf)
	out := buf.String()
	for _, want := range []string{
		"ckpt_overhead_fraction", "recovery_seconds_worst_rank", "copier_cpu_share",
		"shuffle_byte_skew", "missing_ranks", "ckpt_quarantines",
		"report-only", "health: DEGRADED", "gate: pass",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	slo := DefaultSLO()
	slo.MaxCopierShare = 0.001
	buf.Reset()
	Evaluate(r.Snapshot(), slo).Render(&buf)
	if !strings.Contains(buf.String(), "BREACH") || !strings.Contains(buf.String(), "gate: FAIL") {
		t.Errorf("breached report missing BREACH/FAIL:\n%s", buf.String())
	}
}

// TestSLOFlags pins the gate's one flag table (SLO.Flags, shared by ftmr-sim
// -health and ftmr-trace health): parsing nothing leaves the defaults,
// every bound is written by exactly one flag and every flag writes exactly
// one bound, and a command that builds its gate this way judges PFS recovery
// reads as the default does — report-only, not the strict zero a hand-built
// SLO literal missing the field used to mean.
func TestSLOFlags(t *testing.T) {
	parse := func(args ...string) SLO {
		slo := DefaultSLO()
		fs := flag.NewFlagSet("health", flag.ContinueOnError)
		slo.Flags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return slo
	}
	def := DefaultSLO()
	if got := parse(); got != def {
		t.Fatalf("no flags parsed to %+v, want DefaultSLO %+v", got, def)
	}

	var names []string
	fs := flag.NewFlagSet("health", flag.ContinueOnError)
	new(SLO).Flags(fs)
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	fields := reflect.TypeOf(def).NumField()
	if len(names) != fields {
		t.Fatalf("%d flags for %d bounds: %v", len(names), fields, names)
	}
	written := make([]string, fields) // field index -> the flag that wrote it
	for _, name := range names {
		got, want := reflect.ValueOf(parse("-"+name, "12345")), reflect.ValueOf(def)
		var hit []int
		for i := 0; i < fields; i++ {
			switch v := got.Field(i).Float(); {
			case v == 12345:
				hit = append(hit, i)
			case v != want.Field(i).Float():
				t.Fatalf("-%s moved %s to %v", name, got.Type().Field(i).Name, v)
			}
		}
		if len(hit) != 1 || written[hit[0]] != "" {
			t.Fatalf("-%s wrote fields %v (already written by: %q)", name, hit, written)
		}
		written[hit[0]] = name
	}

	r := healthRegistry()
	r.CounterL(MRecoveryReads, "h", "source", SourcePFS).Add(72)
	h := Evaluate(r.Snapshot(), parse("-slo-ckpt-overhead", "0.2"))
	if in := find(t, h, "recovery_read_pfs_share"); in.Value != 1 || in.Breached || h.Breached() {
		t.Fatalf("PFS-only recovery reads under the default bound: %+v (gate breached: %v), want share 1, report-only", in, h.Breached())
	}
}
