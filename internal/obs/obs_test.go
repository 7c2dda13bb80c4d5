package obs

import (
	"os"
	"strings"
	"testing"
	"time"

	"ftmrmpi/internal/doccheck"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/vtime"
)

func TestExportedSymbolsDocumented(t *testing.T) { doccheck.Check(t, ".", "obs") }

// allOn returns a handle with every plane live and every instrument set
// bound, plus the tracer and registry behind it.
func allOn(ringCap int) (*Handle, *trace.Tracer, *metrics.Registry) {
	sim := vtime.NewSim()
	tr, reg := trace.New(sim, ringCap), metrics.New(sim)
	h := New(tr, reg, introspect.New(sim, time.Millisecond), 0)
	h.BindCore()
	h.BindFT()
	return h, tr, reg
}

// site is one pass over every kind of instrumentation point the layers
// have: each multi-plane handle method, the single-plane emits mpi and core
// make through the handle's fields (p2p, recovery attribution, copier and
// replication events, a quarantine, probe annotations, histograms).
// The overhead benchmarks and the allocation test share it so a new call
// site added here is inside the gate.
func site(h *Handle, i int) {
	func() { defer h.CollEnter("barrier", 1, i).Exit() }()
	h.PhaseBegin("map")
	h.Rec.PhaseEnd("map")
	h.TaskCommit("map", i, 100)
	h.Core.MapTask.Observe(0.015)
	h.CkptStall("write", time.Millisecond)
	h.CkptStall("drain", time.Millisecond)
	h.RecoveryRead("map/t1", metrics.SourcePFS, 64, 1)
	h.LBFit("trace", 1e-3, 1e-9, 1e-4, 8)
	h.ShadowSyncPush(1, 2, 20)
	h.Failover(1, 2)

	h.MPI.Sent(64)
	h.MPI.Received(64)
	h.MPI.Revokes.Inc()
	h.Rec.SendBegin(1, 2, 64)
	h.Rec.SendEnd(1, 2, 64, 1)
	h.Rec.RecoveryStage("skip", time.Millisecond)
	h.Rec.ShadowMirror(1, 2, 64, 1)
	h.Rec.CopierDrain("map/t1", 64)
	h.Rec.CkptCorrupt("map/t1", 64, 128)
	h.Core.RecoveryAttempts.Inc()
	h.Probe.SetTask(i)
	h.Probe.EnterDrain()
	h.Probe.ExitDrain()
}

// TestDisabledHandleAllocFree pins the disabled path: with the trace,
// metrics and introspection planes all nil, no instrumentation point
// allocates — neither through a handle built from nil planes nor through the
// zero Handle — and a collective entered with `defer CollEnter().Exit()`
// allocates no closure. (Replaces core's TestFTMetsDisabledAllocFree, which
// pinned the same thing for the replication counters alone.)
func TestDisabledHandleAllocFree(t *testing.T) {
	for name, h := range map[string]*Handle{"New(nil planes)": New(nil, nil, nil, 3), "zero": {}} {
		h.BindCore()
		h.BindFT()
		i := 0
		if a := testing.AllocsPerRun(100, func() { site(h, i); i++ }); a != 0 {
			t.Errorf("%s handle: %v allocs per pass with every plane off; must be 0", name, a)
		}
	}
}

// TestMultiPlaneEventsAgree is why the handle has methods at all: one call
// per occurrence must land in every plane that consumes it, so the metrics
// can never disagree with the trace.
func TestMultiPlaneEventsAgree(t *testing.T) {
	h, tr, reg := allOn(1 << 10)
	site(h, 7)
	kinds := map[trace.Kind]int{}
	for _, ev := range tr.Events() {
		kinds[ev.Kind]++
	}
	snap := reg.Snapshot()
	val := func(name, label string) float64 {
		t.Helper()
		v, ok := snap.Series(name, label)
		if !ok {
			t.Fatalf("series %s{%q} not registered", name, label)
		}
		return v
	}
	for kind, want := range map[trace.Kind]int{
		trace.KindCollBegin: 1, trace.KindCollEnd: 1, trace.KindPhaseBegin: 1,
		trace.KindTaskCommit: 1, trace.KindCkptStall: 2,
		trace.KindCkptLoad: 1, trace.KindRecoverySource: 1, trace.KindLBFit: 1,
		trace.KindShadowSync: 1, trace.KindFailover: 1,
	} {
		if got := kinds[kind]; got != want {
			t.Errorf("%v events = %d, want %d", kind, got, want)
		}
	}
	for _, c := range []struct {
		metric, label string
		want          float64
	}{
		{"ftmr_mpi_collectives", "0", 1},
		{"ftmr_task_commits", "0", 1},
		{metrics.MCkptWriteWait, "0", 0.001},
		{metrics.MCkptDrainWait, "0", 0.001},
		{metrics.MRecoveryReads, metrics.SourcePFS, 1},
		{metrics.MRecoveryReads, metrics.SourceReplicaPeer, 0},
		{"ftmr_lb_fit_observations", "0", 8},
		{"ftmr_ftmodel_shadow_syncs", "0", 1},
		{"ftmr_ftmodel_failovers", "0", 1},
	} {
		if got := val(c.metric, c.label); got != c.want {
			t.Errorf("%s{%s} = %v, want %v", c.metric, c.label, got, c.want)
		}
	}
}

// TestBindScopes pins which series exist when: Launch-time handles register
// the MPI counters only, a runner adds the core series, and the
// ftmr_ftmodel_* families appear only once replication binds them.
func TestBindScopes(t *testing.T) {
	reg := metrics.New(vtime.NewSim())
	families := func() (mpi, core, ft int) {
		for _, f := range reg.Snapshot().Families {
			switch {
			case strings.HasPrefix(f.Name, "ftmr_mpi_"):
				mpi++
			case strings.HasPrefix(f.Name, "ftmr_ftmodel_"):
				ft++
			default:
				core++
			}
		}
		return
	}
	h := New(nil, reg, nil, 0)
	if m, c, f := families(); m != 8 || c != 0 || f != 0 {
		t.Fatalf("after New: %d mpi / %d core / %d ftmodel families, want 8/0/0", m, c, f)
	}
	h.BindCore()
	h.BindCore() // a restarted job binds again: same series
	if m, c, f := families(); m != 8 || c != 11 || f != 0 {
		t.Fatalf("after BindCore: %d mpi / %d core / %d ftmodel families, want 8/11/0", m, c, f)
	}
	h.BindFT()
	if _, _, f := families(); f != 4 {
		t.Fatalf("after BindFT: %d ftmodel families, want 4", f)
	}
}

// TestOverheadGate is the repo's one instrumentation-overhead gate, behind
// `make bench-overhead` (part of `make check`): it re-measures the benchmark
// pair with testing.Benchmark and fails if either path allocates in steady
// state, or if the all-planes-off path stops being decisively cheaper than
// the all-planes-on one — a disabled site must stay at one nil branch per
// plane, so anything within 2x of real ring writes and counter adds means
// someone put work ahead of the nil checks. Gated by FTMR_OVERHEAD_GATE so
// wall-clock-sensitive timing never flakes the plain `go test ./...` run.
// (Replaces trace's TestTracerOverheadGate and metrics'
// TestMetricsOverheadGate.)
func TestOverheadGate(t *testing.T) {
	if os.Getenv("FTMR_OVERHEAD_GATE") == "" {
		t.Skip("set FTMR_OVERHEAD_GATE=1 (make bench-overhead) to run the timing gate")
	}
	off := testing.Benchmark(BenchmarkOverheadOff)
	on := testing.Benchmark(BenchmarkOverheadOn)
	t.Logf("off: %s\non:  %s", off.String(), on.String())
	if a := off.AllocsPerOp(); a != 0 {
		t.Fatalf("all-planes-off path allocates (%d allocs/op); must be alloc-free", a)
	}
	if a := on.AllocsPerOp(); a != 0 {
		t.Fatalf("all-planes-on path allocates (%d allocs/op) in steady state", a)
	}
	if off.NsPerOp()*2 > on.NsPerOp() {
		t.Fatalf("disabled path too slow: %dns/op vs %dns/op enabled — the nil checks are no longer the only cost",
			off.NsPerOp(), on.NsPerOp())
	}
}

// BenchmarkOverheadOff measures one pass over every kind of instrumentation
// point with the trace, metrics and introspection planes all off.
func BenchmarkOverheadOff(b *testing.B) {
	h := New(nil, nil, nil, 0)
	h.BindCore()
	h.BindFT()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		site(h, i)
	}
}

// BenchmarkOverheadOn measures the same pass with all three planes live, in
// steady state: series registered, the trace ring full and overwriting.
func BenchmarkOverheadOn(b *testing.B) {
	h, _, _ := allOn(1 << 10)
	site(h, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site(h, i)
	}
}
