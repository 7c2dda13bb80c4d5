// Package benchmark is ftmr-perf, the repository's performance benchmark:
// four workloads, their end-to-end metrics, per-layer probes and a traced
// run, all measured from outside by timing calls into the exported functions
// of ftmrmpi/internal/... . README.md is the specification; this file is the
// metric tables the program, the README and BENCHMARK.json agree on.
//
// Two clocks are never mixed: "virtual" is what the modelled FT-MRMPI costs,
// "host" is what the simulator costs us.
package benchmark

import "ftmrmpi/internal/trace/critpath"

// Metric describes one reported number.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Clock  string  `json:"clock"`  // host | virtual | count
	Better string  `json:"better"` // lower | higher
	Bound  float64 `json:"bound"`  // regression bound as a share of the base median (end-to-end only)
	Floor  float64 `json:"floor"`  // absolute change below which a move is never "worse"
	Best   bool    `json:"best"`   // reported as the best repetition, not the median (end-to-end only)
	Exact  bool    `json:"exact"`  // repeats exactly for one seed (the † counts)
	Moves  string  `json:"moves"`  // which end-to-end metric it should move, on which workload
}

// WorkloadInfo names a workload and records why it exists.
type WorkloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads is the fixed run order.
var Workloads = []WorkloadInfo{
	{"wc-scale", "simulator core: many ranks, tiny input, O(W^2) ring Alltoallv and status gossip; host CPU sits in vtime+mpi, so scheduler, mailbox and event-diet work shows here and kvbuf work must not"},
	{"wc-data", "data path: 16 ranks, large input, record checkpoints through the copier; host CPU sits in kvbuf+storage, so convert, codec and storage work shows here and scheduler work must not"},
	{"recover-mix", "six failure scenarios back to back (CR restart, DR-WC map kill, replica, DR-NWC, replicate, PageRank losing a rank in every job): the guard for recovery-path refactors"},
	{"wc-observed", "instrumentation: DR-WC map kill with trace, metrics and introspection planes on and the whole analysis pipeline inside wall_s; sinks and codecs dominate here and nowhere else"},
}

// EndToEnd metrics are reported for every workload over the untraced
// repetitions: the host times as the best repetition, the rest as the
// median. The work of a repetition is fixed, and what the shared host adds
// to it comes in slow stretches of ten to twenty seconds that only ever add
// time: over the same ten runs the medians of wc-scale's wall_s spread 21 %
// between their quartiles, the best repetitions 7 % (README, "Steadiness").
// Each metric is non-zero on every workload; the two quantities the issue
// listed that can be zero moved elsewhere (recovery_virt_s to the per-layer
// table, runs_failed to failed/attempted).
//
// The bounds are what this host can resolve, not what one would wish, and
// the two exact metrics differ between seeds by the kill victim, so each
// bound is at least three times the quartile spread seen over ten seeds.
var EndToEnd = []Metric{
	{Name: "wall_s", Unit: "s", Clock: "host", Better: "lower", Bound: 0.25, Best: true,
		Moves: "launch -> Sim.Run returns -> outputs read back and checked (+ the analysis pipeline on wc-observed; summed over scenarios on recover-mix)"},
	{Name: "setup_s", Unit: "s", Clock: "host", Better: "lower", Bound: 0.25, Floor: 0.05, Best: true,
		Moves: "cluster.New + input generation + plane/tracer construction incl. ring allocation"},
	{Name: "records_per_s", Unit: "1/s", Clock: "host", Better: "higher", Bound: 0.25, Best: true,
		Moves: "input records (fixed per workload) / wall_s"},
	{Name: "peak_rss_mb", Unit: "MB", Clock: "host", Better: "lower", Bound: 0.25, Floor: 32,
		Moves: "ru_maxrss of the repetition's process"},
	{Name: "alloc_mb", Unit: "MB", Clock: "host", Better: "lower", Bound: 0.10,
		Moves: "MemStats.TotalAlloc over set-up + measured section"},
	{Name: "virt_s", Unit: "s", Clock: "virtual", Better: "lower", Bound: 0.05, Exact: true,
		Moves: "sum of Result.Elapsed() over every job attempt, incl. the aborted CR attempt and its resubmission"},
}

// Layer names, in the order the CPU profile is attributed. A sample goes to
// the innermost ftmrmpi/internal/<pkg> frame on its stack that is one of
// these; samples with no such frame go to go_gc or go_other.
var cpuLayers = []string{"vtime", "mpi", "core", "kvbuf", "storage", "workloads", "failure", "trace", "critpath", "metrics", "introspect"}

var spanNames = []string{"cluster_new", "gen_input", "launch", "sim_run", "verify",
	"trace_write", "trace_read", "trace_analyze", "metrics_io", "introspect_io"}

var phaseNames = []string{"map", "shuffle", "merge", "reduce", "recovery"}

// PerLayer lists every per-layer metric: the traced repetition's (same names
// on all four workloads) followed by the workload-independent layer probes.
var PerLayer = buildPerLayer()

func buildPerLayer() []Metric {
	var out []Metric
	add := func(name, unit, clock, better, moves string, exact bool) {
		out = append(out, Metric{Name: name, Unit: unit, Clock: clock, Better: better, Exact: exact, Moves: moves})
	}
	cpuMoves := map[string]string{
		"vtime": "wall_s on wc-scale", "mpi": "wall_s on wc-scale",
		"core": "wall_s on recover-mix", "failure": "wall_s on recover-mix",
		"kvbuf": "wall_s on wc-data", "storage": "wall_s on wc-data", "workloads": "wall_s on wc-data",
		"trace": "wall_s on wc-observed", "critpath": "wall_s on wc-observed",
		"metrics": "wall_s on wc-observed", "introspect": "wall_s on wc-observed",
	}
	for _, l := range cpuLayers {
		add(l+".cpu_s", "s", "host", "lower", cpuMoves[l], false)
	}
	add("go_gc.cpu_s", "s", "host", "lower", "wall_s; follows alloc_mb everywhere", false)
	add("go_other.cpu_s", "s", "host", "lower", "wall_s (runtime, benchmark's own verification)", false)
	for _, s := range spanNames {
		m := "wall_s (sink spans are non-zero only on wc-observed)"
		if s == "cluster_new" || s == "gen_input" {
			m = "setup_s"
		}
		add("span."+s+"_s", "s", "host", "lower", m, false)
	}
	phaseMoves := map[string]string{"map": "wall_s on wc-data", "shuffle": "wall_s on wc-scale",
		"merge": "wall_s on wc-data", "reduce": "wall_s", "recovery": "wall_s on recover-mix"}
	for _, p := range phaseNames {
		add("core.phase_wall_s."+p, "s", "host", "lower", phaseMoves[p], false)
	}
	add("vtime.events", "count", "count", "lower", "wall_s, alloc_mb on wc-scale (event diet)", true)
	add("vtime.procs", "count", "count", "lower", "peak_rss_mb on wc-scale", true)
	add("vtime.ns_per_event", "ns", "host", "lower", "wall_s on wc-scale (engine change: events identical)", false)
	add("mpi.sends", "count", "count", "lower", "vtime.events -> wall_s on wc-scale", true)
	add("mpi.send_bytes", "B", "count", "lower", "virt_s on wc-scale", true)
	add("mpi.collectives", "count", "count", "lower", "vtime.events -> wall_s on wc-scale", true)
	for _, n := range []string{"revokes", "shrinks", "agrees"} {
		add("mpi."+n, "count", "count", "lower", "recovery_virt_s on recover-mix", true)
	}
	add("core.records_mapped", "count", "count", "lower", "must not move on failure-free workloads", true)
	add("core.groups_reduced", "count", "count", "lower", "must never move", true)
	add("core.ckpt_frames", "count", "count", "lower", "virt_s, alloc_mb on wc-data", true)
	add("core.ckpt_bytes", "B", "count", "lower", "virt_s, alloc_mb on wc-data", true)
	add("core.shuffle_bytes", "B", "count", "lower", "virt_s on wc-scale", true)
	add("core.records_skipped", "count", "count", "lower", "recovery_virt_s on recover-mix", true)
	add("core.records_restored", "count", "count", "higher", "recovery_virt_s on recover-mix", true)
	add("core.recovered_bytes", "B", "count", "lower", "recovery_virt_s on recover-mix", true)
	add("recovery_virt_s", "s", "virtual", "lower", "end-to-end recovery cost: sum over attempts of the slowest rank's recovery phase; 0 on the failure-free workloads", true)
	virtMoves := map[string]string{"map": "virt_s on wc-data", "shuffle": "virt_s on wc-scale",
		"merge": "virt_s on wc-data", "reduce": "virt_s", "recovery": "recovery_virt_s on recover-mix"}
	for _, p := range phaseNames {
		add("core.virt_s."+p, "s", "virtual", "lower", virtMoves[p], true)
	}
	for _, p := range []string{"init", "load", "skip", "reprocess"} {
		add("core.recovery_virt_s."+p, "s", "virtual", "lower", "recovery_virt_s on recover-mix", true)
	}
	add("core.cpu_main_virt_s", "s", "virtual", "lower", "virt_s", true)
	add("core.cpu_copier_virt_s", "s", "virtual", "lower", "virt_s on wc-data", true)
	add("core.io_wait_virt_s", "s", "virtual", "lower", "virt_s on wc-data", true)
	add("core.net_wait_virt_s", "s", "virtual", "lower", "virt_s on wc-scale", true)
	add("core.ckpt_overhead_virt_pct", "%", "virtual", "lower", "virt_s on wc-scale and wc-data (the paper's Fig 5 number; 0 elsewhere)", true)
	add("storage.pfs_bytes_served", "B", "count", "lower", "virt_s on wc-data", true)
	add("storage.local_bytes_served", "B", "count", "lower", "virt_s on wc-data", true)
	add("storage.fs_bytes_resident", "B", "count", "lower", "peak_rss_mb on wc-data", true)
	for _, c := range critpath.Categories() {
		add("critpath.share."+c.String(), "%", "virtual", "lower", "explains virt_s / recovery_virt_s; a host-only change leaves it identical", true)
	}
	add("trace.events", "count", "count", "lower", "wall_s, peak_rss_mb on wc-observed", true)
	add("trace.jsonl_bytes", "B", "count", "lower", "wall_s on wc-observed", true)
	add("trace.dropped", "count", "count", "lower", "must stay 0", true)
	add("trace.ring_mb", "MB", "host", "lower", "setup_s, peak_rss_mb on wc-observed", false)
	add("metrics.series", "count", "count", "lower", "wall_s on wc-observed", true)
	add("introspect.snapshots", "count", "count", "lower", "wall_s on wc-observed", true)
	add("go.mallocs", "count", "host", "lower", "alloc_mb, go_gc.cpu_s", false)
	add("go.num_gc", "count", "host", "lower", "go_gc.cpu_s", false)
	add("go.heap_sys_mb", "MB", "host", "lower", "peak_rss_mb", false)
	add("go.stack_sys_mb", "MB", "host", "lower", "peak_rss_mb on wc-scale (goroutine stacks, read mid-run in the traced repetition)", false)
	add("go.kb_per_rank", "KB", "host", "lower", "peak_rss_mb on wc-scale", false)
	add("traced.wall_overhead_pct", "%", "host", "lower", "nothing: bounds how far the traced numbers may be trusted", false)

	probe := func(name, unit, better, moves string, exact bool) {
		clock := "host"
		if exact {
			clock = "count"
		}
		add(name, unit, clock, better, moves, exact)
	}
	const onScale = "wall_s on wc-scale; none on wc-data"
	probe("vtime.probe.dispatch_ns", "ns", "lower", onScale, false)
	probe("vtime.probe.timer_arm_stop_ns", "ns", "lower", onScale, false)
	probe("vtime.probe.bandwidth_acquire_ns", "ns", "lower", onScale, false)
	probe("vtime.probe.queue_roundtrip_ns", "ns", "lower", onScale, false)
	probe("vtime.probe.spawn_us", "us", "lower", "setup_s, wall_s on wc-scale", false)
	probe("vtime.probe.kb_per_parked_proc", "KB", "lower", "peak_rss_mb on wc-scale", false)
	probe("mpi.probe.pingpong_ns", "ns", "lower", onScale, false)
	probe("mpi.probe.incast_ns", "ns", "lower", onScale, false)
	probe("mpi.probe.barrier_ns_per_rank", "ns", "lower", onScale, false)
	probe("mpi.probe.allgather_ns_per_rank", "ns", "lower", onScale, false)
	probe("mpi.probe.alltoallv_empty_ns_per_pair", "ns", "lower", onScale, false)
	probe("mpi.probe.alltoallv_1k_ns_per_pair", "ns", "lower", onScale, false)
	probe("mpi.probe.alltoallv_events_per_pair", "count", "lower", "vtime.events on wc-scale", true)
	probe("mpi.probe.shrink_ns_per_rank", "ns", "lower", "wall_s on recover-mix", false)
	const onData = "wall_s, alloc_mb on wc-data"
	probe("kvbuf.probe.add_ns", "ns", "lower", onData, false)
	probe("kvbuf.probe.partition_ns", "ns", "lower", onData, false)
	probe("kvbuf.probe.convert2_ns", "ns", "lower", onData+" (two-pass)", false)
	probe("kvbuf.probe.convert4_ns", "ns", "lower", "wall_s on recover-mix cr-restart (four-pass)", false)
	probe("kvbuf.probe.convert2_bytes_per_pair", "B", "lower", onData, true)
	probe("kvbuf.probe.convert4_bytes_per_pair", "B", "lower", "wall_s on recover-mix cr-restart", true)
	probe("kvbuf.probe.kmv_codec_mb_per_s", "MB/s", "higher", onData, false)
	probe("storage.probe.fs_append_ns", "ns", "lower", onData, false)
	probe("storage.probe.fs_read_mb_per_s", "MB/s", "higher", onData, false)
	probe("storage.probe.tier_append_ns", "ns", "lower", onData, false)
	probe("storage.probe.tier_read_ns", "ns", "lower", onData, false)
	probe("storage.probe.tier_copy_mb_per_s", "MB/s", "higher", onData, false)
	probe("core.probe.ckpt_host_us_per_frame", "us", "lower", "wall_s on wc-data", false)
	const onObs = "wall_s on wc-observed"
	probe("trace.probe.emit_ns", "ns", "lower", onObs, false)
	probe("trace.probe.write_jsonl_ns_per_event", "ns", "lower", onObs, false)
	probe("trace.probe.read_jsonl_ns_per_event", "ns", "lower", onObs, false)
	probe("trace.probe.ring_bytes_per_slot", "B", "lower", "setup_s, peak_rss_mb on wc-observed", false)
	probe("critpath.probe.analyze_ns_per_event", "ns", "lower", onObs, false)
	probe("metrics.probe.counter_add_ns", "ns", "lower", onObs, false)
	probe("metrics.probe.snapshot_us_per_kseries", "us", "lower", onObs, false)
	probe("metrics.probe.openmetrics_roundtrip_us_per_kseries", "us", "lower", onObs, false)
	probe("introspect.probe.capture_us_per_rank", "us", "lower", onObs, false)
	return out
}
