GO ?= go

# `make check` is the tier-1 gate (referenced from ROADMAP.md): static
# checks (gofmt, vet), a full build (including every cmd/ binary), the race
# detector over the internals, the whole test suite, the nested benchmark
# module (vet and its smoke tests: it imports internal/... from outside, so an
# API deletion breaks it unseen otherwise), a short fuzz of the checkpoint
# codecs, the JSONL reader, the OpenMetrics parser, the extent store
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
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeState$$' -fuzztime 5s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeShadowSync$$' -fuzztime 5s
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

# Data-path allocation gate: the raw layer benchmarks for eyeballing, then the
# bounds that keep the host cost of the data, shuffle and trace paths linear
# in what they model — the KV→KMV grouping allocates a fixed number of slabs
# plus one per table doubling, never per key or per pair, under
# ConvertTwoPass and ConvertFourPass alike (four-pass is a price list over
# the same grouping; its executed reference lives in kv_test.go); the
# copier's drain of a growing stream allocates a small multiple of the stream,
# not of stream x drains; what a rank allocates to encode and merge its
# shuffle bundles depends on the partitions that hold data, not on the rank
# count; a rank's map output is one log whatever the partition count, so the
# same pairs at W=64 and at W=4096 cost the same allocations and differ in
# bytes only by the shuffle's int32 partition cursor table; one sparse
# exchange allocates the same bytes per rank at W=512 and at W=2048;
# a trace ring allocates for the events recorded, not for its capacity; a
# file built from appends is copied once, not regrown; a map task allocates
# per commit, never per record or per word; an Allgather hands every rank
# one shared result, not a W-entry slice each; and a recovery round computes
# its plan once for every survivor, not once per survivor.
# Host-independent: every bound counts allocations or allocated bytes.
alloc-gate:
	$(GO) test ./internal/kvbuf ./internal/storage ./internal/core ./internal/mpi ./internal/trace -run '^$$' -bench 'Convert(Two|Four)Pass|KVAdd|FSAppendStream|CopierDrain|SendBundles|MergeBundles|Allgather|(Write|Read)JSONL|MergeBitmap' -benchtime 5x -benchmem
	$(GO) test ./internal/kvbuf ./internal/storage ./internal/core ./internal/workloads ./internal/trace ./internal/mpi -run '^(TestConvertAllocsAreSlabs|TestFSAppendCopiesOnce|TestCopierDrainsOnlyTheSuffix|TestShuffleAllocsPerRank|TestMapOutputAllocsPerRank|TestMapTaskAllocsPerTask|TestTraceRingPaysPerEvent|TestAllgatherAllocsAreLinear|TestRecoveryPlanAllocsAreLinear|TestExchangeAllocsFlatInW)$$' -v

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
# wordcount ceiling run (133 s of wall clock and 12.5 GB peak RSS at W=10000
# in the committed thr-des row; set FTMR_CEILING_RANKS to trim). Reproduces
# the thr-des rows.
bench-throughput: throughput-gate
	FTMR_THROUGHPUT_CEILING=1 $(GO) test ./internal/bench -run '^TestThroughputCeiling$$' -v -timeout 60m

# CLI self-test through the real binaries: one line per check, the exit
# status the command must return, then the command (run by sh with stdout and
# stderr discarded). The same invariants the unit tests pin, plus the
# fixtures that must not drift: a committed file named after `cmp` is
# regenerated by the command on the line above it, writing to the committed
# path instead of $T.
T := /tmp/ftmr-selftest
define SELFTEST
# trace fixtures: self-diff is clean, the injected-divergence pair is flagged, the v2 golden validates and summarizes, and the mirror fixture's second receive of one flow id is a violation
0 bin/ftmr-trace diff internal/trace/testdata/golden_v2.jsonl internal/trace/testdata/golden_v2.jsonl
1 bin/ftmr-trace diff internal/trace/testdata/div_a.jsonl internal/trace/testdata/div_b.jsonl
0 bin/ftmr-trace flows internal/trace/testdata/golden_v2.jsonl
1 bin/ftmr-trace flows internal/trace/testdata/golden_mirror.jsonl
0 bin/ftmr-trace summarize -skew internal/trace/testdata/golden_v2.jsonl
# a file that is no trace at all is unreadable input, never a clean verdict
2 bin/ftmr-trace flows internal/jsonl/testdata/junk.bin
2 bin/ftmr-trace summarize internal/jsonl/testdata/junk.bin
2 bin/ftmr-trace diff internal/jsonl/testdata/junk.bin internal/trace/testdata/golden_v2.jsonl
2 bin/ftmr-trace critpath internal/jsonl/testdata/junk.bin
2 bin/ftmr-trace inspect internal/jsonl/testdata/junk.bin
# metrics: a deterministic 8-rank wordcount failover run reproduces the committed snapshot byte for byte; it summarizes, self-diffs clean, differs from the other committed snapshot and passes the default SLOs, and a deliberately tight checkpoint-overhead bound fails the health gate
0 bin/ftmr-sim -procs 8 -kill-phase map -metrics-out $T.om
0 cmp $T.om internal/metrics/testdata/selftest.om
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
0 bin/ftmr-sim -procs 8 -kill-phase reduce -slo-ckpt-overhead 0.2 -health -metrics-out $T.pfs.om
0 bin/ftmr-trace health -slo-ckpt-overhead 0.2 $T.pfs.om
# critical path and introspection, from one traced and snapshotted run of the same job: the report matches the committed golden, its composition self-diff is clean, the committed copier-stall regression pair is flagged, and the live snapshots inspect clean
0 bin/ftmr-sim -workload wordcount -procs 8 -model wc -kill-phase map -trace $T.jsonl -trace-format jsonl -introspect-out $T.insp
0 bin/ftmr-trace critpath $T.jsonl > $T.txt
0 cmp $T.txt internal/trace/critpath/testdata/golden_report.txt
0 bin/ftmr-trace critpath -against $T.jsonl $T.jsonl
1 bin/ftmr-trace critpath -against internal/trace/critpath/testdata/base.jsonl internal/trace/critpath/testdata/regressed.jsonl
0 bin/ftmr-trace inspect $T.insp
# the committed deadlock fixture (ranks stranded in two different collectives) is reported (exit 1) and renders its wait-for graph as DOT
1 bin/ftmr-trace inspect internal/introspect/testdata/deadlock.jsonl
0 bin/ftmr-trace inspect -waitgraph internal/introspect/testdata/deadlock.jsonl | grep -q digraph
# flags the simulator cannot honour are refused, not panicked on or ignored
2 bin/ftmr-sim -procs 0
2 bin/ftmr-sim -procs 8 -kill-phase map -kill-rank 99
2 bin/ftmr-sim -ft-model replicate -model cr
2 bin/ftmr-sim -workload pagerank -iters 0
2 bin/ftmr-sim -procs 8 -kill-phase map -restart
# a resubmitted checkpoint/restart job is a second MPI world writing the same trace: its flow ids continue where the aborted world's stopped (a reduce kill, so the aborted world has sent its map-phase status gossip)
0 bin/ftmr-sim -procs 8 -model cr -kill-phase reduce -restart -trace $T.cr.jsonl -trace-format jsonl
0 bin/ftmr-trace flows $T.cr.jsonl
# flags without a line above: a PFS outage window, continuous kills, the JSON summary, the streamed trace (which must validate) and the default Chrome trace format
0 bin/ftmr-sim -procs 8 -outage 1ms,3ms
0 bin/ftmr-sim -procs 8 -kills 2 -kill-every 5ms
0 bin/ftmr-sim -procs 8 -json
0 bin/ftmr-sim -procs 8 -kill-phase map -trace-stream $T.st.jsonl
0 bin/ftmr-trace flows $T.st.jsonl
0 bin/ftmr-sim -procs 8 -kill-phase map -trace $T.chrome.json
# what README and EXPERIMENTS.md document and no other line reaches: ftmr-sim's own critical-path report agrees byte for byte with ftmr-trace critpath's golden (and an unanalyzable trace, its job.begin overwritten, is one line and exit 2); one run with every plane on joins stalls and path shares into the snapshot, which ftmr-trace health judges as ftmr-sim -health did; ring overwrites are counted in it; the other three workloads; chaos kills with storage faults; chunk granularity; checkpoints straight to the PFS; an outage the introspection stream names; a watchdog that starts, never fires and stops
0 bin/ftmr-sim -procs 8 -kill-phase map -critpath-out $T.cp.txt
0 cmp $T.cp.txt internal/trace/critpath/testdata/golden_report.txt
2 bin/ftmr-sim -procs 8 -trace-cap 16 -critpath-out $T.cp2.txt
0 bin/ftmr-sim -procs 8 -kill-phase map -introspect-out $T.all.insp -metrics-out $T.all.om -health -critpath-out $T.all.txt
0 grep -q ftmr_introspect_stalls $T.all.om
0 grep -q ftmr_critpath_share $T.all.om
0 bin/ftmr-trace health $T.all.om
0 bin/ftmr-sim -procs 8 -kill-phase map -trace-cap 16 -trace $T.drop.jsonl -trace-format jsonl -metrics-out $T.drop.om
0 grep -q ftmr_trace_events_dropped $T.drop.om
0 bin/ftmr-sim -workload blast -procs 8
0 bin/ftmr-sim -workload pagerank -procs 8
0 bin/ftmr-sim -workload bfs -procs 8
0 bin/ftmr-sim -procs 8 -chaos 2 -storage-faults
0 bin/ftmr-sim -procs 8 -kill-phase map -granularity chunk
0 bin/ftmr-sim -procs 8 -kill-phase map -ckpt-direct-pfs
0 bin/ftmr-sim -procs 8 -outage 1ms,3ms -introspect-interval 1ms -introspect-out $T.out.insp
0 grep -q '"outages":\[{"tier":"pfs"' $T.out.insp
0 bin/ftmr-sim -procs 8 -stall-after 30s
# a masking job that loses every rank is an aborted one, not a clean run with no output
0 bin/ftmr-sim -procs 1 -model wc -kill-phase map | grep -q aborted=true
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

# Regenerates the committed evaluation results: the human-readable tables
# and the machine-readable trajectory document, from one run (so the two
# always agree). Full scale; `bin/ftmr-bench -all -quick` trims the sweeps.
bench: build-cmds
	bin/ftmr-bench -all -json BENCH_results.json > bench_results.txt

# Reachability census (~3 min; not part of `make check`): which non-test
# functions under internal/ and cmd/ does any binary reach? Fails when one
# that none reaches is missing from census.keep, or when a census.keep row
# is stale. census.sh says what is driven and how.
census:
	sh census.sh
