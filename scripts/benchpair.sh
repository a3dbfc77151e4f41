#!/bin/sh
# benchpair.sh — the paired-run protocol behind every performance claim in
# CHANGES.md (bench/README.md, "Protocol"): build ./bench once at each of
# two commits, run them in alternating order, and print, per workload and
# end-to-end metric, each side's median and quartiles, how many pairs the
# change won, and whether the gap between the medians is larger than the
# spread between the parent's own runs ("better" / "WORSE"; "unresolved"
# when it is not, "tied" when every pair tied).
#
# Usage:
#   scripts/benchpair.sh <parent> <change> [pairs=10] [seed=7]
#
# <parent> and <change> are commits (anything `git worktree add` accepts).
# Each is checked out into its own git worktree under a temporary
# directory, so the working tree is not touched and uncommitted changes are
# not measured. After the pairs, one more pair runs on a seed the pairs did
# not use (seed+12): a claim has to hold there too. Every invocation runs
# all five workloads at the benchmark's own length.
#
# A full run is 2 × (pairs+1) benchmark invocations of about 90 s each.
set -eu

if [ $# -lt 2 ]; then
    sed -n '2,19p' "$0" >&2
    exit 2
fi
parent=$1
change=$2
pairs=${3:-10}
seed=${4:-7}
rerun_seed=$((seed + 12))

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
cleanup() {
    for side in parent change; do
        git worktree remove --force "$tmp/$side" >/dev/null 2>&1 || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

for side in parent change; do
    eval "rev=\$$side"
    git worktree add --detach "$tmp/$side" "$rev" >/dev/null 2>&1 ||
        { echo "benchpair: cannot check out $rev" >&2; exit 2; }
    (cd "$tmp/$side" && go build -o "$tmp/bench-$side" ./bench)
    echo "built $side = $(git -C "$tmp/$side" log -1 --format='%h %s' | cut -c1-72)" >&2
done

# run <side> <seed> <tag>: one benchmark invocation, from that side's own
# checkout (the benchmark reads BENCHMARK.json and writes bench/out there).
# A failed correctness gate is kept in the log and reported, not fatal.
run() {
    echo "== $3 $1" >>"$tmp/log"
    (cd "$tmp/$1" && "$tmp/bench-$1" --seed "$2") >>"$tmp/log" 2>/dev/null ||
        echo "GATE FAILED: $1 exited non-zero ($3)" >>"$tmp/log"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $i/$pairs: $side (seed $seed)" >&2
        run "$side" "$seed" "pair $i"
    done
    i=$((i + 1))
done
for side in change parent; do
    echo "rerun: $side (seed $rerun_seed)" >&2
    run "$side" "$rerun_seed" "rerun"
done

# The log is a sequence of "== <tag> <side>" headers, each followed by the
# benchmark's own output: "<workload>: N rounds, ..." then one
# "  <metric> <value> <unit>" line per metric.
awk -v pairs="$pairs" -v seed="$seed" -v rerun="$rerun_seed" '
function quantile(a, n, q,    h, lo) {
    if (n == 1) return a[1]
    h = (n - 1) * q + 1; lo = int(h)
    if (lo >= n) return a[n]
    return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function sorted(key, n, out,    i, j, v) {
    for (i = 1; i <= n; i++) out[i] = val[key, i]
    for (i = 2; i <= n; i++) {
        v = out[i]
        for (j = i - 1; j >= 1 && out[j] > v; j--) out[j + 1] = out[j]
        out[j + 1] = v
    }
}
function fmtnum(x) { return (x >= 1000) ? sprintf("%.0f", x) : (x >= 10) ? sprintf("%.2f", x) : sprintf("%.4f", x) }
/^== / { tag = ($2 == "rerun") ? "rerun" : $3; side = $NF; next }
/^GATE FAILED|GATE FAILED:/ { gates = gates "  " tag " " side ": " $0 "\n"; next }
/^[a-z_]+: [0-9]+ rounds/ { w = $1; sub(/:$/, "", w); if (!(w in seenw)) { seenw[w] = 1; ws[++nw] = w }; next }
/^  [a-z0-9_.]+ +[-0-9.e+]+ / {
    m = $1
    if (!(m in seenm)) { seenm[m] = 1; ms[++nm] = m }
    val[side, w, m, tag] = $2 + 0
    next
}
END {
    printf "%d pairs on seed %d, alternating first side; IQR = the parent'"'"'s own runs; rerun = one pair on seed %d\n", pairs, seed, rerun
    printf "%-16s %-19s %28s %28s %8s %9s %-11s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "W/T/L", "gap > IQR?", "rerun"
    for (a = 1; a <= nw; a++) for (b = 1; b <= nm; b++) {
        w = ws[a]; m = ms[b]
        if (!(("parent", w, m, 1) in val)) continue
        for (i = 1; i <= pairs; i++) { p[i] = val["parent", w, m, i]; c[i] = val["change", w, m, i] }
        higher = (m == "vt_goodput_per_min")
        win = tie = loss = 0
        for (i = 1; i <= pairs; i++) {
            if (c[i] == p[i]) tie++
            else if ((c[i] < p[i]) != higher) win++
            else loss++
        }
        for (i = 1; i <= pairs; i++) { val["P", i] = p[i]; val["C", i] = c[i] }
        sorted("P", pairs, sp); sorted("C", pairs, sc)
        pm = quantile(sp, pairs, 0.5); p1 = quantile(sp, pairs, 0.25); p3 = quantile(sp, pairs, 0.75)
        cm = quantile(sc, pairs, 0.5); c1 = quantile(sc, pairs, 0.25); c3 = quantile(sc, pairs, 0.75)
        gap = cm - pm; if (gap < 0) gap = -gap
        iqr = p3 - p1
        better = ((cm < pm) != higher)
        verdict = (tie == pairs) ? "tied" : (gap <= iqr) ? "unresolved" : better ? "better" : "WORSE"
        delta = (pm != 0) ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "n/a"
        rr = sprintf("%s -> %s", fmtnum(val["parent", w, m, "rerun"]), fmtnum(val["change", w, m, "rerun"]))
        printf "%-16s %-19s %10s [%8s,%8s] %10s [%8s,%8s] %8s %3d/%d/%d %-11s %s\n", w, m,
            fmtnum(pm), fmtnum(p1), fmtnum(p3), fmtnum(cm), fmtnum(c1), fmtnum(c3), delta, win, tie, loss, verdict, rr
    }
    if (gates != "") printf "correctness gates that failed:\n%s", gates
    else print "every correctness gate held on all " 2 * (pairs + 1) " invocations"
}' "$tmp/log"
