GO ?= go

# `make check` is the tier-1 gate (referenced from ROADMAP.md): static
# checks (gofmt, vet), a full build (including every cmd/ binary), the race
# detector over the internals, the whole test suite, the nested benchmark
# module (vet and its smoke tests: it imports internal/... from outside, so an
# API deletion breaks it unseen otherwise), a short fuzz of the checkpoint
# frame codec, the JSONL reader, the OpenMetrics parser, the extent store
# against its flat model and the KV→KMV grouping against its map-indexed
# reference, the one instrumentation-overhead gate that keeps
# every disabled observation plane at one-branch cost, the data-path and
# tracer allocation gate, and the CLI self-test over the committed fixtures.
# (The simulator throughput gate is one of the tests `test` and `race` run.)
.PHONY: check fmt vet build build-cmds test race benchmark-module fuzz-smoke bench-overhead alloc-gate throughput-gate bench-throughput selftest bench census

check: fmt vet build build-cmds race test benchmark-module fuzz-smoke bench-overhead alloc-gate selftest

# Fails when any file is not gofmt-clean, naming it.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Every command must link as a real binary (go build ./... alone does not
# write them), and they land in bin/ for the walkthroughs in README.md.
build-cmds:
	$(GO) build -o bin/ ./cmd/...

test:
	$(GO) test -shuffle=on ./...

# -short strides the failure campaign's every-ordinal kill sweep (tier-1 runs
# all of it; go test ./internal/failure -run TestKillAtEveryEventOrdinal -v
# runs it alone and logs its size).
race:
	$(GO) test -race -short ./...

# benchmark/ is its own module (go.mod there), so ./... above never reaches it.
benchmark-module:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeFrames$$' -fuzztime 5s
	$(GO) test ./internal/introspect -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime 5s
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime 5s
	$(GO) test ./internal/metrics -run '^$$' -fuzz '^FuzzParseOpenMetrics$$' -fuzztime 5s
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzFSModel$$' -fuzztime 5s
	$(GO) test ./internal/kvbuf -run '^$$' -fuzz '^FuzzGroup$$' -fuzztime 5s

# Runs the raw benchmark pair for eyeballing, then the hard gate: the test
# fails if any instrumentation point allocates with the trace, metrics and
# introspection planes all off, or if that path stops being at least 2x
# cheaper than the all-planes-on one.
bench-overhead:
	$(GO) test ./internal/obs -run '^$$' -bench Overhead -benchmem
	FTMR_OVERHEAD_GATE=1 $(GO) test ./internal/obs -run '^TestOverheadGate$$' -v

# Data-path and observation-pipeline allocation gate: the layer and
# pipeline-stage benchmarks for eyeballing, then the allocation bounds, each
# stated in its test's doc comment.
alloc-gate:
	$(GO) test ./internal/kvbuf ./internal/storage ./internal/core ./internal/mpi ./internal/trace ./internal/obs -run '^$$' -bench 'Convert(Two|Four)Pass|KVAdd|FSAppendStream|CopierDrain|SendBundles|MergeBundles|Allgather|(Write|Read)JSONL|CritpathAnalyze|MetricsRoundTrip|IntrospectJSONL|MergeBitmap' -benchtime 5x -benchmem
	$(GO) test ./internal/kvbuf ./internal/storage ./internal/core ./internal/workloads ./internal/trace ./internal/trace/critpath ./internal/metrics ./internal/mpi -run '^(TestConvertAllocsAreSlabs|TestFSAppendCopiesOnce|TestTierOpsMakeNoPathString|TestCopierDrainsOnlyTheSuffix|TestShuffleAllocsPerRank|TestMapOutputAllocsPerRank|TestMapTaskAllocsPerTask|TestPageRankAllocsPerRecord|TestTraceRingPaysPerEvent|TestWriteJSONLAllocsFlatInEvents|TestReadJSONLSizesItsResultOnce|TestAnalyzeNeitherCopiesNorModifies|TestParseOpenMetricsAllocsPerSeries|TestAllgatherAllocsAreLinear|TestRecoveryPlanAllocsAreLinear|TestExchangeAllocsFlatInW|TestMergeReferencesLongFrames|TestChunkReadsRefillOneBuffer|TestReduceOutputAllocsPerCommit|TestJobAllocsPerRankFlatInW|TestShuffleBytesPerBlock|TestReplicaPushCopiesNoPayload)$$' -v

# Simulator-throughput regression gate, on its own and verbose (`make check`
# runs it inside `test` and `race`, as every `go test ./...` does): two
# counts over W=256 runs, host-independent. One Barrier, Allgather,
# AllreduceInt64 or Alltoallv each stays within 3 scheduler events per rank
# (every collective is a rendezvous, not simulated messages), and a
# failure-free wordcount never holds more than 32 unmatched messages in one
# mailbox (internal/mpi scans its mailboxes because they are that short;
# measured peak 6).
throughput-gate:
	$(GO) test ./internal/bench -run '^TestThroughputGate$$' -v

# Full simulator-throughput suite: the regression gate plus the 10k-rank
# wordcount ceiling run, which logs its events, virtual time, wall clock and
# Mev/s (set FTMR_CEILING_RANKS to trim). The thr-des row of
# BENCH_results.json holds the same numbers; `make bench` writes it.
bench-throughput: throughput-gate
	FTMR_THROUGHPUT_CEILING=1 $(GO) test ./internal/bench -run '^TestThroughputCeiling$$' -v -timeout 60m

# CLI self-test through the real binaries: one line per check, the exit
# status the command must return, then the command (run by sh with stdout and
# stderr discarded). The same invariants the unit tests pin, plus the
# fixtures that must not drift: a committed file named after `cmp` is
# regenerated by the ftmr-sim run above it, copied from where that run wrote
# it under $T.
T := /tmp/ftmr-selftest
define SELFTEST
# trace fixtures: self-diff is clean, the injected-divergence pair is flagged, the v2 golden validates and summarizes, the duplicate-receive fixture's second receive of one flow id is a violation, and a trace cut short by a torn last line is analyzed with a warning
0 bin/ftmr-trace diff internal/trace/testdata/golden_v2.jsonl internal/trace/testdata/golden_v2.jsonl
1 bin/ftmr-trace diff internal/trace/testdata/div_a.jsonl internal/trace/testdata/div_b.jsonl
0 bin/ftmr-trace flows internal/trace/testdata/golden_v2.jsonl
1 bin/ftmr-trace flows internal/trace/testdata/dup_recv.jsonl
0 out=$$(bin/ftmr-trace flows internal/trace/testdata/torn.jsonl 2>&1) && echo "$$out" | grep -q 'warning: .*1 of 18 lines malformed'
0 bin/ftmr-trace summarize -skew internal/trace/testdata/golden_v2.jsonl
# a file that is no trace at all is unreadable input, never a clean verdict
2 bin/ftmr-trace flows internal/jsonl/testdata/junk.bin
2 bin/ftmr-trace summarize internal/jsonl/testdata/junk.bin
2 bin/ftmr-trace diff internal/jsonl/testdata/junk.bin internal/trace/testdata/golden_v2.jsonl
2 bin/ftmr-trace critpath internal/jsonl/testdata/junk.bin
2 bin/ftmr-trace inspect internal/jsonl/testdata/junk.bin
# the run report: a deterministic 8-rank wordcount failover run with every plane on writes a snapshot that reproduces the committed one byte for byte, with stalls and critical-path shares joined into it, and passes the default SLOs; its own critical-path report and ftmr-trace critpath's of its trace both match the committed golden; its trace's flows pair up and it renders as Chrome JSON; its introspection stream inspects clean
0 bin/ftmr-sim -procs 8 -kill-phase map -health -report $T.run
0 cmp $T.run/metrics.om internal/metrics/testdata/selftest.om
0 grep -q ftmr_introspect_stalls $T.run/metrics.om
0 grep -q ftmr_critpath_share $T.run/metrics.om
0 bin/ftmr-trace health $T.run/metrics.om
0 cmp $T.run/critpath.txt internal/trace/critpath/testdata/golden_report.txt
0 bin/ftmr-trace critpath $T.run/trace.jsonl > $T.txt
0 cmp $T.txt internal/trace/critpath/testdata/golden_report.txt
0 bin/ftmr-trace critpath -against $T.run/trace.jsonl $T.run/trace.jsonl
0 bin/ftmr-trace flows $T.run/trace.jsonl
0 bin/ftmr-trace chrome $T.run/trace.jsonl > $T.chrome.json
0 grep -q traceEvents $T.chrome.json
0 bin/ftmr-trace inspect $T.run/introspect.jsonl
# a -report directory that cannot be written (a regular file, or under a missing parent) is refused before the run
2 bin/ftmr-sim -procs 8 -report internal/metrics/testdata/golden.om
2 bin/ftmr-sim -procs 8 -report $T.missing/run
# metrics: the committed snapshot summarizes, self-diffs clean, differs from the other committed snapshot and passes the default SLOs, and a deliberately tight checkpoint-overhead bound fails the health gate
0 bin/ftmr-trace summarize internal/metrics/testdata/selftest.om
0 bin/ftmr-trace diff internal/metrics/testdata/selftest.om internal/metrics/testdata/selftest.om
1 bin/ftmr-trace diff internal/metrics/testdata/golden.om internal/metrics/testdata/selftest.om
0 bin/ftmr-trace health internal/metrics/testdata/selftest.om
1 bin/ftmr-trace health -slo-ckpt-overhead 0.01 internal/metrics/testdata/selftest.om
# a file is read as what it is: a trace and a snapshot do not compare, and a verb refuses the kind it cannot read
2 bin/ftmr-trace diff internal/trace/testdata/golden_v2.jsonl internal/metrics/testdata/selftest.om
2 bin/ftmr-trace flows internal/metrics/testdata/selftest.om
2 bin/ftmr-trace health internal/trace/testdata/golden_v2.jsonl
# one SLO flag table: a reduce-kill run that recovers from the PFS passes the gate under a loosened checkpoint bound, and ftmr-trace judges its snapshot as ftmr-sim did
0 bin/ftmr-sim -procs 8 -kill-phase reduce -slo-ckpt-overhead 0.2 -health -report $T.pfs
0 bin/ftmr-trace health -slo-ckpt-overhead 0.2 $T.pfs/metrics.om
# the committed copier-stall regression pair is flagged by the critical-path composition diff
1 bin/ftmr-trace critpath -against internal/trace/critpath/testdata/base.jsonl internal/trace/critpath/testdata/regressed.jsonl
# the committed deadlock fixture (ranks stranded in two different collectives) is reported (exit 1) and renders its wait-for graph as DOT
1 bin/ftmr-trace inspect internal/introspect/testdata/deadlock.jsonl
1 bin/ftmr-trace inspect -waitgraph internal/introspect/testdata/deadlock.jsonl > $T.dot
0 grep -q digraph $T.dot
# flags the simulator cannot honour are refused, not panicked on or ignored
2 bin/ftmr-sim -procs 0
2 bin/ftmr-sim -procs 8 -kill-phase map -kill-rank 99
2 bin/ftmr-sim -ft-model replicate -model cr
2 bin/ftmr-sim -workload pagerank -iters 0
2 bin/ftmr-sim -procs 8 -kill-phase map -restart
2 bin/ftmr-sim -model nwc -ft-model partial -replica-fraction 5
2 bin/ftmr-sim -procs 8 -kills 2 -kill-every -5ms
2 bin/ftmr-sim -procs 8 -chaos 2 -chaos-window -1s
2 bin/ftmr-sim -procs 8 -introspect-interval -1s
2 bin/ftmr-sim -procs 8 -introspect-interval 1ms
2 bin/ftmr-sim -procs 8 -kill-rank 3
2 bin/ftmr-sim -procs 8 -chaos 2 -kill-phase map
2 bin/ftmr-sim -procs 8 -kills 2 -kill-phase reduce
# a resubmitted checkpoint/restart job is a second MPI world writing the same trace: its flow ids continue where the aborted world's stopped (a reduce kill, so the aborted world has sent its map-phase status gossip)
0 bin/ftmr-sim -procs 8 -model cr -kill-phase reduce -restart -report $T.cr
0 bin/ftmr-trace flows $T.cr/trace.jsonl
# flags without a line above: a PFS outage window, continuous kills, the JSON summary
0 bin/ftmr-sim -procs 8 -outage 1ms,3ms
0 bin/ftmr-sim -procs 8 -kills 2 -kill-every 5ms
0 bin/ftmr-sim -procs 8 -json
# what README and EXPERIMENTS.md document and no other line reaches: the other three workloads; chaos kills with storage faults; chunk granularity; checkpoints straight to the PFS; an outage the introspection stream names
0 bin/ftmr-sim -workload blast -procs 8
0 bin/ftmr-sim -workload pagerank -procs 8
0 bin/ftmr-sim -workload bfs -procs 8
0 bin/ftmr-sim -procs 8 -chaos 2 -storage-faults
0 bin/ftmr-sim -procs 8 -kill-phase map -granularity chunk
0 bin/ftmr-sim -procs 8 -kill-phase map -ckpt-direct-pfs
0 bin/ftmr-sim -procs 8 -outage 1ms,3ms -introspect-interval 1ms -report $T.out
0 grep -q '"outages":\[{"tier":"pfs"' $T.out/introspect.jsonl
# a masking job that loses every rank is an aborted one, not a clean run with no output, and its report says it has no critical path
0 bin/ftmr-sim -procs 1 -model wc -kill-phase map -report $T.abort > $T.abort.txt
0 grep -q aborted=true $T.abort.txt
0 grep -q 'no job.end' $T.abort/critpath.txt
# one usage contract for every CLI: an unknown figure, a missing mode or an unknown subcommand is exit 2
2 bin/ftmr-bench -fig nope
0 bin/ftmr-bench -list
2 bin/ftmr-bench
2 bin/ftmr-trace
2 bin/ftmr-trace bogus
endef
export SELFTEST

selftest: build-cmds
	@echo "$$SELFTEST" | grep -v '^#' | while read -r want cmd; do \
		( eval "$$cmd" ) >/dev/null 2>&1; got=$$?; \
		if [ $$got -ne $$want ]; then echo "selftest: exit $$got, want $$want: $$cmd"; exit 1; fi; \
	done
	@echo "selftest: all checks passed"

# Regenerates the committed evaluation results, BENCH_results.json (the tables
# also print to stdout). Full scale; `bin/ftmr-bench -all -quick` trims the
# sweeps.
bench: build-cmds
	bin/ftmr-bench -all -json BENCH_results.json

# Reachability census (~3 min; not part of `make check`): which non-test
# functions under internal/ and cmd/ does any binary reach? Fails when one
# that none reaches is missing from census.keep, or when a census.keep row
# is stale. census.sh says what is driven and how.
census:
	sh census.sh
