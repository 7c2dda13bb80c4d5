#!/bin/sh
# Reachability census (`make census`, ~3 min, stdlib toolchain only): which
# non-test functions under internal/ and cmd/ does any binary reach?
#
# Every cmd/ binary, every example and the benchmark's ftmr-perf are built
# with coverage instrumentation into a temporary directory and driven the way
# the repository drives them: the Makefile's SELFTEST table, every figure at
# the quick scale, each example, and the four BENCHMARK.json workloads with
# and without the traced repetition and its layer probes. The merged profile
# is crossed with one -coverpkg=./... test profile per package, and every
# function no binary reaches is printed as `pkg.Func <- what reaches it`.
#
# The same two profiles are then crossed at the statement: how many statements
# under internal/ and cmd/ no test and no binary reaches, and the ten files
# that hold most of them. That is printed, not gated: what is left there is
# error-propagation and I/O-failure arms.
#
# Exits 1 when such a function is not listed in census.keep
# (`pkg.Func<TAB>reason`), or when a census.keep row names a function that no
# longer exists or that a binary now reaches: delete the function, give it
# traffic, or say why it stays.
set -eu
root=$(pwd)
T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT
mkdir "$T/bin" "$T/cov" "$T/test" "$T/root"

go build -cover -coverpkg=./... -o "$T/bin/" ./cmd/... ./examples/...
go build -C benchmark -cover -coverpkg=ftmrmpi/... -o "$T/bin/ftmr-perf" ./cmd/ftmr-perf

# The SELFTEST table names bin/ and internal/ relative to where make runs.
ln -s "$T/bin" "$T/root/bin"
ln -s "$root/internal" "$T/root/internal"
export GOCOVERDIR="$T/cov"
make -s -C "$T/root" -f "$root/Makefile" -o build-cmds selftest
"$T/bin/ftmr-bench" -all -quick -json "$T/bench.json" >/dev/null 2>&1
for e in examples/*/; do
	"$T/bin/$(basename "$e")" >/dev/null
done
for w in wc-scale wc-data recover-mix wc-observed; do
	for t in 0 1; do
		"$T/bin/ftmr-perf" --workload "$w" --seconds 5 --trace "$t" >/dev/null
	done
done
unset GOCOVERDIR
go tool covdata textfmt -i="$T/cov" -o "$T/all.cov"
grep -v '^ftmrmpi/benchmark/' "$T/all.cov" >"$T/bin.cov"

for p in $(go list ./...); do
	go test -count=1 -coverpkg=./... -coverprofile="$T/test/$(echo "${p#ftmrmpi/}" | tr / -)" "$p" >"$T/test.log" 2>&1 || {
		cat "$T/test.log"
		exit 1
	}
done

# `file:line<TAB>reacher` for every function a profile reaches.
reached() { go tool cover -func="$1" | awk -v by="$2" '$NF != "0.0%" && NF == 3 { sub(/:$/, "", $1); print $1 "\t" by }'; }
reached "$T/bin.cov" binary >"$T/reached"
for f in "$T"/test/*; do
	reached "$f" "$(basename "$f")" >>"$T/reached"
done

# `file:line<TAB>pkg.Func` for every function declared in non-test source.
find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | sort | xargs awk '
FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg); sub(/^internal\//, "", pkg) }
/^func / {
	s = $0; sub(/^func /, "", s); recv = ""
	if (s ~ /^\(/) {
		recv = s; sub(/\).*/, "", recv); sub(/^\(([A-Za-z_0-9]+ )?\*?/, "", recv); sub(/\[.*/, "", recv)
		recv = recv "."; sub(/^\([^)]*\) /, "", s)
	}
	sub(/[(\[].*/, "", s)
	print "ftmrmpi/" FILENAME ":" FNR "\t" pkg "." recv s
}' >"$T/funcs"

status=0
awk -F'\t' '
FILENAME ~ /reached$/ { if ($2 == "binary") bin[$1] = 1; else by[$1] = by[$1] (by[$1] == "" ? "" : ", ") $2; next }
FILENAME ~ /census.keep$/ { if ($0 !~ /^#/ && $0 != "") keep[$1] = 1; next }
{
	total++; seen[$2] = 1
	if ($1 in bin) { if ($2 in keep) { print "census.keep: " $2 " is reached by a binary"; bad = 1 }; next }
	unreached++
	if (!($1 in by)) nothing++
	print $2 " <- " (($1 in by) ? "tests of " by[$1] : "nothing")
	if (!($2 in keep)) { print "census: " $2 " is reached by no binary and is not in census.keep"; bad = 1 }
}
END {
	for (k in keep) if (!(k in seen)) { print "census.keep: " k " does not exist"; bad = 1 }
	printf "census: %d functions, %d reached by no binary, %d of those by nothing at all\n", total, unreached, nothing
	exit bad
}' "$T/reached" census.keep "$T/funcs" || status=$?

# `file:block statements count` lines: a block is reached if any profile
# counted it.
cat "$T/bin.cov" "$T"/test/* | awk '
$1 ~ /^ftmrmpi\/(internal|cmd)\// { n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
END {
	for (b in n) {
		total += n[b]
		if (!(b in hit)) { f = b; sub(/:.*/, "", f); miss += n[b]; per[f] += n[b] }
	}
	printf "census: %d of %d statements reached by no test and no binary; the ten files holding most:\n", miss, total
	for (f in per) printf "%6d %s\n", per[f], f | "sort -k1,1nr -k2 | head -10"
}'
exit $status
