#!/bin/sh
# census.sh — the functions no program runs: a coverage census of the
# working tree's programs. A report, not a gate.
#
# Usage:
#   scripts/census.sh
#
# Builds gridsim, dstgrid, benchgrid, tracegrid, gridtop, bench and every
# program under examples/ with -cover -coverpkg=./... into a temporary
# directory, runs them with GOCOVERDIR set, and prints every function under
# internal/ that no run entered (the 0.0 % rows of `go tool covdata func`),
# then their total.
#
# The run set is scripts/identical.sh's, whose header lists it: gridsim on
# figure1, atomic-failure and batch-queue and with -demo, -broker,
# -federation and -chaos, each with every export flag; dstgrid -smoke -seeds
# 200, -smoke -fed-seeds 40 and the internal/dst/testdata corpus; benchgrid
# -fig all -app all -smoke -json and -metrics-out; one bench -child round
# per workload on seeds 7, 19 and 35. To that it adds `bench --seconds 1`,
# every example, `tracegrid -smoke -check` and `gridtop -smoke`. rslfmt is
# not in the set. Exit statuses are not checked: a run that fails still
# counts what it ran.
#
# scripts/surface.sh's dead-export report reads names in the source, so it
# cannot see unexported code or a method called only through an interface
# (an rpc.Handler method no server is ever sent a frame for, say); this
# census sees both. A function listed here runs in tests only, or nowhere.
# Takes a few minutes; all output but the report goes to the temporary
# directory, which is removed on exit.
set -eu

if [ $# -ne 0 ]; then
    sed -n '2,30p' "$0" >&2
    exit 2
fi

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
cleanup() {
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

mkdir "$tmp/cov" "$tmp/out" "$tmp/run"
GOCOVERDIR=$tmp/cov
export GOCOVERDIR

for bin in gridsim dstgrid benchgrid tracegrid gridtop; do
    go build -cover -coverpkg=./... -o "$tmp/$bin" "./cmd/$bin"
done
go build -cover -coverpkg=./... -o "$tmp/bench" ./bench
examples=""
for dir in examples/*/; do
    name=example-$(basename "$dir")
    go build -cover -coverpkg=./... -o "$tmp/$name" "./$dir"
    examples="$examples $name"
done
echo "built into $tmp" >&2

# run <name> <binary> <arguments...>: one run from the repository root (the
# scenario and corpus paths are relative to it), its output kept aside.
run() {
    name=$1
    shift
    "$@" >"$tmp/out/$name.txt" 2>&1 || true
}

for scenario in figure1 atomic-failure batch-queue; do
    run "gridsim-$scenario" "$tmp/gridsim" -f "cmd/gridsim/testdata/$scenario.json" -counters \
        -trace-jsonl "$tmp/out/$scenario.jsonl" -trace "$tmp/out/$scenario.json" \
        -gauges "$tmp/out/$scenario.csv" -metrics-out "$tmp/out/$scenario.prom"
done
for builtin in demo broker federation chaos; do
    run "gridsim-$builtin" "$tmp/gridsim" "-$builtin" -counters \
        -trace-jsonl "$tmp/out/$builtin.jsonl" -trace "$tmp/out/$builtin.json" \
        -gauges "$tmp/out/$builtin.csv" -metrics-out "$tmp/out/$builtin.prom"
done
run dst-seeds200 "$tmp/dstgrid" -smoke -seeds 200 -json
run dst-fedseeds40 "$tmp/dstgrid" -smoke -fed-seeds 40 -json
run dst-corpus "$tmp/dstgrid" -corpus internal/dst/testdata -json
run benchgrid-smoke "$tmp/benchgrid" -fig all -app all -smoke -json
run benchgrid-metrics "$tmp/benchgrid" -metrics-out -
for workload in duroc_wide broker_open broker_open_obs fed_chaos kernel_scale; do
    for seed in 7 19 35; do
        run "bench-$workload-$seed" "$tmp/bench" -child "$workload" -seed "$seed"
    done
done
run bench "$tmp/bench" --seconds 1
run tracegrid "$tmp/tracegrid" -smoke -check
run gridtop "$tmp/gridtop" -smoke
for name in $examples; do
    (cd "$tmp/run" && "$tmp/$name" >"$tmp/out/$name.txt" 2>&1) || true
done
echo "ran the census set" >&2

go tool covdata func -i="$tmp/cov" |
    awk '$1 ~ /^cogrid\/internal\// && $NF == "0.0%" { print; n++ }
         END { printf "total: %d functions under internal/ that no program runs\n", n }'
