package obs_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/scenario"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/trace/critpath"
	"ftmrmpi/internal/workloads"
)

// The per-stage benchmarks of the analysis pipeline an observed run ends
// with (make alloc-gate prints them with -benchmem next to the trace codec's
// (Write|Read)JSONL): the critical path, the metrics snapshot through
// OpenMetrics and back, and the introspection snapshots through their JSONL.
// Each stage runs over one 256-rank wordcount job under detect/resume (WC)
// that loses rank 128 a millisecond into its map phase, with every plane on:
// 512 chunks of 16 lines, the shape of the benchmark's wc-observed workload.

var stagesRun = sync.OnceValue(func() *cluster.Cluster {
	const w = 256
	p := workloads.DefaultWordcount()
	p.Chunks, p.Lines, p.Seed = 2*w, 16, 1
	spec := core.Spec{Model: core.ModelDetectResumeWC, LoadBalance: true}
	o := scenario.Run(scenario.Scenario{
		Name: "stages", Procs: w, Workload: scenario.Wordcount(p), Spec: spec,
		Kills: []scenario.Kill{{Rank: w / 2, Phase: core.PhaseMap, Delay: time.Millisecond}},
		Observe: func(clus *cluster.Cluster) {
			clus.Trace = trace.New(clus.Sim, trace.DefaultCapacity)
			clus.Metrics = metrics.New(clus.Sim)
			clus.Introspect = introspect.New(clus.Sim, 10*time.Millisecond)
		},
	})
	o.Clus.Introspect.Final()
	core.ExportResultMetrics(o.Clus.Metrics, o.Results())
	return o.Clus
})

func BenchmarkCritpathAnalyze(b *testing.B) {
	events := stagesRun().Trace.Events()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := critpath.Analyze(events); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(events)), "events")
}

func BenchmarkMetricsRoundTrip(b *testing.B) {
	reg := stagesRun().Metrics
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := metrics.WriteOpenMetrics(&buf, reg.Snapshot()); err != nil {
			b.Fatal(err)
		}
		if _, err := metrics.ParseOpenMetrics(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntrospectJSONL(b *testing.B) {
	pl := stagesRun().Introspect
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := pl.WriteJSONL(&buf); err != nil {
			b.Fatal(err)
		}
		if _, rr, err := introspect.ReadJSONL(&buf); err != nil || !rr.Clean() {
			b.Fatal(err, rr)
		}
	}
}
