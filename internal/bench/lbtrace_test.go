package bench

import (
	"testing"

	"ftmrmpi/internal/core"
	"ftmrmpi/internal/workloads"
)

// The straggler ablation's acceptance criterion: under the throttled-turbo
// scenario the trace-driven balancer must complete the job strictly sooner
// than the static §3.4 fit (which keeps trusting the turbo rank's fast
// history and hands it lost work it can no longer absorb).
func TestTraceLBBeatsStaticUnderStraggler(t *testing.T) {
	procs := 64
	p := workloads.DefaultWordcount()
	p.Chunks = 16 * procs
	p.Lines = 64

	mapDur := runWordcount("lbt-test-cal", procs, p, evalSpec(core.ModelDetectResumeNWC)).MaxPhase(core.PhaseMap)

	st, _ := ablLBTraceRun("lbt-test-static", procs, p, core.LBStatic, mapDur*45/100, mapDur*95/100)
	tr, _ := ablLBTraceRun("lbt-test-trace", procs, p, core.LBTrace, mapDur*45/100, mapDur*95/100)

	if tr >= st {
		t.Fatalf("trace-driven balancing did not beat static: trace=%v static=%v", tr, st)
	}
	// The gap should be substantial (the tuned scenario yields ~17%); guard
	// against regressions that shrink it to noise.
	if gain := 1 - float64(tr)/float64(st); gain < 0.05 {
		t.Fatalf("trace-vs-static gain %.1f%% below the 5%% floor (trace=%v static=%v)",
			gain*100, tr, st)
	}
}
