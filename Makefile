GO ?= go

# `make check` is the tier-1 gate (referenced from ROADMAP.md): static
# checks, a full build (including every cmd/ binary), the race detector over
# the internals, the whole test suite, a short fuzz of the checkpoint codecs,
# the tracer- and metrics-overhead benchmarks that keep the disabled
# instrumentation paths at one-branch cost, and the ftmr-trace, ftmr-metrics
# and critical-path fixture self-tests.
.PHONY: check vet build build-cmds test race fuzz-smoke bench-overhead bench-throughput trace-selftest metrics-selftest critpath-selftest introspect-selftest bench

check: vet build build-cmds race test fuzz-smoke bench-overhead throughput-gate trace-selftest metrics-selftest critpath-selftest introspect-selftest

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

race:
	$(GO) test -race ./...

fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeFrames$$' -fuzztime 5s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeState$$' -fuzztime 5s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeShadowSync$$' -fuzztime 5s
	$(GO) test ./internal/introspect -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime 5s

# Runs the raw benchmarks for eyeballing, then the hard gates: the tests
# fail if a disabled tracer or metrics path allocates or regresses past
# one-branch cost.
bench-overhead:
	$(GO) test ./internal/trace -run '^$$' -bench TracerOverhead -benchmem
	FTMR_OVERHEAD_GATE=1 $(GO) test ./internal/trace -run '^TestTracerOverheadGate$$' -v
	$(GO) test ./internal/metrics -run '^$$' -bench MetricsOverhead -benchmem
	FTMR_OVERHEAD_GATE=1 $(GO) test ./internal/metrics -run '^TestMetricsOverheadGate$$' -v

# Simulator-throughput regression gate (part of `make check`): the indexed
# mailbox matcher must stay well ahead of the legacy linear scan on the
# incast microbenchmark, both paths must schedule the identical event
# sequence, and one W=256 Alltoallv must stay within 4 scheduler events per
# rank. Host-independent: it compares two configurations on one host, and
# the event budget is a count.
.PHONY: throughput-gate
throughput-gate:
	FTMR_THROUGHPUT_GATE=1 $(GO) test ./internal/bench -run '^TestThroughputGate$$' -v

# Full simulator-throughput suite: the regression gate plus the 10k-rank
# wordcount ceiling run (~15 min of wall clock and ~30 GB peak RSS at
# W=10000; set FTMR_CEILING_RANKS to trim). Reproduces the thr-des rows.
bench-throughput: throughput-gate
	FTMR_THROUGHPUT_CEILING=1 $(GO) test ./internal/bench -run '^TestThroughputCeiling$$' -v -timeout 60m

# CLI self-test over the committed fixtures (the same invariants the unit
# tests pin, exercised through the real binary): self-diff is clean, the
# injected-divergence pair is flagged (exit 1), and the v2 golden fixture
# passes flow validation and summarizes.
trace-selftest: build-cmds
	bin/ftmr-trace diff internal/trace/testdata/golden_v2.jsonl internal/trace/testdata/golden_v2.jsonl
	! bin/ftmr-trace diff internal/trace/testdata/div_a.jsonl internal/trace/testdata/div_b.jsonl >/dev/null
	bin/ftmr-trace flows internal/trace/testdata/golden_v2.jsonl
	bin/ftmr-trace summarize -skew internal/trace/testdata/golden_v2.jsonl >/dev/null

# CLI self-test over the committed metrics snapshot (an 8-rank wordcount
# failover run, regenerated with:
#   bin/ftmr-sim -procs 8 -kill-phase map -metrics-out internal/metrics/testdata/selftest.om
# ): it must render and self-diff clean, the default SLOs must pass its
# health gate, and a deliberately tight checkpoint-overhead bound must make
# the gate exit nonzero.
metrics-selftest: build-cmds
	bin/ftmr-metrics render internal/metrics/testdata/selftest.om >/dev/null
	bin/ftmr-metrics diff internal/metrics/testdata/selftest.om internal/metrics/testdata/selftest.om >/dev/null
	bin/ftmr-metrics health internal/metrics/testdata/selftest.om >/dev/null
	! bin/ftmr-metrics health -slo-ckpt-overhead 0.01 internal/metrics/testdata/selftest.om >/dev/null

# Critical-path self-test through the real binaries: a deterministic 8-rank
# wordcount failover run must render byte-identically to the committed
# golden report, its composition self-diff must be clean, and the committed
# copier-stall regression fixture pair must be flagged (exit 1). The golden
# is regenerated with the same two commands below, writing to the committed
# path instead of /tmp.
critpath-selftest: build-cmds
	bin/ftmr-sim -workload wordcount -procs 8 -model wc -kill-phase map \
		-trace /tmp/ftmr-critpath-selftest.jsonl -trace-format jsonl >/dev/null
	bin/ftmr-trace critpath /tmp/ftmr-critpath-selftest.jsonl > /tmp/ftmr-critpath-selftest.txt
	cmp /tmp/ftmr-critpath-selftest.txt internal/trace/critpath/testdata/golden_report.txt
	bin/ftmr-trace critpath -against /tmp/ftmr-critpath-selftest.jsonl \
		/tmp/ftmr-critpath-selftest.jsonl >/dev/null
	! bin/ftmr-trace critpath -against internal/trace/critpath/testdata/base.jsonl \
		internal/trace/critpath/testdata/regressed.jsonl >/dev/null

# Introspection-plane self-test through the real binaries: the committed
# crossed-recv deadlock fixture must make `ftmr-trace inspect` exit 1 (and
# render its wait-for graph as DOT), and a live 8-rank wordcount run with
# snapshots on must exit 0 and inspect clean. (The chaos campaigns — replica
# tier under a PFS outage, the replication models, introspection false-stall
# and determinism — are plain tests in internal/failure: `test` and `race`
# already run them.)
introspect-selftest: build-cmds
	! bin/ftmr-trace inspect internal/introspect/testdata/deadlock.jsonl >/dev/null
	bin/ftmr-trace inspect -waitgraph internal/introspect/testdata/deadlock.jsonl | grep -q digraph
	bin/ftmr-sim -workload wordcount -procs 8 -kill-phase map \
		-introspect-out /tmp/ftmr-introspect-selftest.jsonl >/dev/null
	bin/ftmr-trace inspect /tmp/ftmr-introspect-selftest.jsonl >/dev/null

# Regenerates the committed evaluation results: the human-readable tables
# and the machine-readable trajectory document, from one run (so the two
# always agree). Full scale; FTMR_QUICK=1 trims the sweeps.
bench: build-cmds
	bin/ftmr-bench -all -json BENCH_results.json > bench_results.txt
