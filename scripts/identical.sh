#!/bin/sh
# identical.sh — the byte-identical-artifact oracle behind every "same
# behaviour" claim in CHANGES.md: build gridsim, dstgrid, benchgrid and bench
# at two commits, produce the same set of deterministic artifacts from each,
# and compare them byte for byte.
#
# Usage:
#   scripts/identical.sh <parent> <change>
#
# <parent> and <change> are commits (anything `git archive` accepts).
# Each is exported (git archive) into its own directory under a temporary
# directory, so the working tree is not touched and uncommitted changes are
# not compared. Every artifact is written under that temporary directory too.
#
# The artifact set:
#   gridsim   figure1, atomic-failure, batch-queue (cmd/gridsim/testdata),
#             -demo, -broker, -federation, -chaos; of each the JSONL trace,
#             the Chrome trace, standard output with the -counters table,
#             the -gauges CSV and the -metrics-out exposition
#   dstgrid   -smoke -seeds 200, -smoke -fed-seeds 40 and the
#             internal/dst/testdata corpus, each as -json lines
#   benchgrid -fig all -app all -smoke -json, the repository's virtual-time
#             record (all 18 results), without its wall-clock lines
#             (msgs_per_sec, ns_per_op, allocs_per_op, bytes_per_op, wall_ns,
#             ns_per_job, jobs_per_sec); and the -metrics-out exposition
#   bench     one -child round per workload on seeds 7, 19 and 35: its
#             vt_* results and its timers, msgs, bytes and events counts
#
# One line per file: "same" or "DIFF", and under a DIFF the first line that
# differs on each side, the parent's ("<") and the change's (">"), then how
# many do if there are more — enough to read "only the timers count moved"
# off the log. Exit status 1 if any file differs — whoever made the change
# then explains the difference or removes it.
set -eu

if [ $# -ne 2 ]; then
    sed -n '2,32p' "$0" >&2
    exit 2
fi
parent=$1
change=$2

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
cleanup() {
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

for side in parent change; do
    eval "rev=\$$side"
    mkdir "$tmp/$side"
    git rev-parse -q --verify "$rev^{commit}" >/dev/null &&
        git archive "$rev" | tar -x -C "$tmp/$side" ||
        { echo "identical: cannot check out $rev" >&2; exit 2; }
    for bin in gridsim dstgrid benchgrid; do
        (cd "$tmp/$side" && go build -o "$tmp/$side-$bin" "./cmd/$bin")
    done
    (cd "$tmp/$side" && go build -o "$tmp/$side-bench" ./bench)
    mkdir "$tmp/out-$side"
    echo "built $side = $(git log -1 --format='%h %s' "$rev" | cut -c1-72)" >&2
done

# sim <side> <name> <gridsim arguments...>: one gridsim run, five files.
sim() {
    from=$tmp/$1 to=$tmp/out-$1/$2
    shift 2
    (cd "$from" && "$from-gridsim" "$@" -counters \
        -trace-jsonl "$to.trace.jsonl" -trace "$to.trace.json" \
        -gauges "$to.gauges.csv" -metrics-out "$to.metrics.prom") \
        >"$to.stdout.txt" 2>&1 || echo "exit status $?" >>"$to.stdout.txt"
}

# dst <side> <name> <dstgrid arguments...>: one sweep, one file of JSON lines.
dst() {
    from=$tmp/$1 to=$tmp/out-$1/$2.jsonl
    shift 2
    (cd "$from" && "$from-dstgrid" "$@" -json) >"$to" 2>&1 || echo "exit status $?" >>"$to"
}

# studies <side>: every benchgrid result at smoke size, and the exposition.
studies() {
    from=$tmp/$1 to=$tmp/out-$1/benchgrid
    (cd "$from" && "$from-benchgrid" -fig all -app all -smoke -json) 2>&1 |
        grep -vE '"(msgs_per_sec|ns_per_op|allocs_per_op|bytes_per_op|wall_ns|ns_per_job|jobs_per_sec)":' \
            >"$to.smoke.json" || true
    (cd "$from" && "$from-benchgrid" -metrics-out -) >"$to.metrics.prom" 2>&1 ||
        echo "exit status $?" >>"$to.metrics.prom"
}

# round <side> <workload> <seed>: one benchmark round in a fresh process,
# reduced to the fields that are a function of the seed alone.
round() {
    (cd "$tmp" && "$tmp/$1-bench" -child "$2" -seed "$3") 2>&1 | tr ',{}' '\n\n\n' |
        grep -E '^"(vt_[a-z0-9_]+|timers|msgs|bytes|events|ops|failed)":' \
            >"$tmp/out-$1/bench.$2.seed$3.txt" || true
}

for side in parent change; do
    echo "running $side" >&2
    for scenario in figure1 atomic-failure batch-queue; do
        sim "$side" "$scenario" -f "cmd/gridsim/testdata/$scenario.json"
    done
    for builtin in demo broker federation chaos; do
        sim "$side" "$builtin" "-$builtin"
    done
    dst "$side" dst-seeds200 -smoke -seeds 200
    dst "$side" dst-fedseeds40 -smoke -fed-seeds 40
    dst "$side" dst-corpus -corpus internal/dst/testdata
    studies "$side"
    for workload in duroc_wide broker_open broker_open_obs fed_chaos kernel_scale; do
        for seed in 7 19 35; do
            round "$side" "$workload" "$seed"
        done
    done
done

status=0
for f in "$tmp/out-parent"/*; do
    name=$(basename "$f")
    if [ ! -s "$f" ]; then
        echo "DIFF  $name (empty: the parent produced nothing to compare)"
        status=1
    elif cmp -s "$f" "$tmp/out-change/$name"; then
        echo "same  $name"
    else
        echo "DIFF  $name ($(cmp "$f" "$tmp/out-change/$name" 2>&1 | sed 's/.* differ: //'))"
        diff "$f" "$tmp/out-change/$name" | cut -c1-160 | awk '
            /^</ { if (!l++) print "      " $0 }
            /^>/ { if (!r++) print "      " $0 }
            END { if (l > 1 || r > 1) printf "      (%d lines of the parent, %d of the change differ)\n", l, r }'
        status=1
    fi
done
for f in "$tmp/out-change"/*; do
    name=$(basename "$f")
    if [ ! -e "$tmp/out-parent/$name" ]; then
        echo "DIFF  $name (only the change produced it)"
        status=1
    fi
done
exit $status
