#!/bin/sh
# benchprofile.sh — CPU and allocation profiles of rounds of the committed
# benchmark, without editing bench/: the question every performance issue
# starts from ("where does duroc_wide's time go, and its bytes?") answered by
# the program the claim will be measured with, not by a hand-patched copy.
#
# Usage:
#   scripts/benchprofile.sh <workload> [seed=7] [rounds=1]
#
# <workload> is one of the benchmark's five (BENCHMARK.json), or "layers".
# The script generates a copy of bench/main.go in which the child's round
# (the runChild call) runs between pprof.StartCPUProfile and a heap profile
# written after a collection, builds ./bench with that copy laid over the
# original (go build -overlay; the working tree is read, not written), and
# runs `rounds` `-child <workload> -seed <s>` rounds, s = seed ..
# seed+rounds-1, at GOMAXPROCS=1, as the benchmark's own rounds run. It
# prints each round's result line, then the top 25 entries by cumulative CPU
# time, the share of CPU spent in encoding/json, the top 25 functions by
# bytes allocated, and two per-layer tables, CPU time and allocated objects,
# over every round's profile merged: one round is about 130 CPU samples, too
# few to rank anything under 5 %.
#
# The per-layer rule: each sample is charged whole to the innermost frame of
# its stack whose function is in a package cogrid/internal/<pkg>, and that
# <pkg> is its layer; a sample with no such frame (the collector, the
# scheduler, the benchmark's own main package) is charged to runtime/GC. So a
# layer's row is its self cost plus what it spends in the standard library,
# and each table sums to 100 %. It leaves cpu-<s>.pprof, allocs-<s>.pprof and the
# binary in a temporary directory whose name is the last line, for
# `go tool pprof -list`, `-peek` and `-sample_index=alloc_objects` (name
# every round's file to merge them there too).
#
# The copy is made by replacing two anchor lines of bench/main.go, the
# import block's opening and the runChild call; if either is no longer there
# exactly once the script stops and says so, since a profile of something
# else would be worse than none. Profiling slows the round a little: read
# shares from it, and take wall-clock numbers from benchpair.sh.
set -eu

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    sed -n '2,37p' "$0" >&2
    exit 2
fi
workload=$1
seed=${2:-7}
rounds=${3:-1}

cd "$(dirname "$0")/.."
root=$(pwd)
tmp=$(mktemp -d)

awk -v dir="$tmp" '
$0 == "import (" {
    print; print "\t\"runtime\""; print "\t\"runtime/pprof\""
    imports++; next
}
$0 == "\t\trunChild(*child, *seed, *traced, time.Unix(0, *spawned))" {
    print "\t\tcpu, err := os.Create(fmt.Sprintf(\"" dir "/cpu-%d.pprof\", *seed))"
    print "\t\tmust(err)"
    print "\t\tmust(pprof.StartCPUProfile(cpu))"
    print
    print "\t\tpprof.StopCPUProfile()"
    print "\t\tmust(cpu.Close())"
    print "\t\truntime.GC() // the allocation profile is complete up to the last collection"
    print "\t\tallocs, err := os.Create(fmt.Sprintf(\"" dir "/allocs-%d.pprof\", *seed))"
    print "\t\tmust(err)"
    print "\t\tmust(pprof.Lookup(\"allocs\").WriteTo(allocs, 0))"
    print "\t\tmust(allocs.Close())"
    calls++; next
}
{ print }
END {
    if (imports != 1 || calls != 1) {
        print "benchprofile: bench/main.go no longer has its anchor lines exactly once (import block opening: " imports+0 ", runChild call: " calls+0 "); update scripts/benchprofile.sh" > "/dev/stderr"
        exit 1
    }
}' bench/main.go >"$tmp/main.go" || { rm -rf "$tmp"; exit 2; }

printf '{"Replace": {"%s/bench/main.go": "%s/main.go"}}\n' "$root" "$tmp" >"$tmp/overlay.json"
go build -overlay "$tmp/overlay.json" -o "$tmp/bench" ./bench

last=$((seed + rounds - 1))
echo "== $rounds -child round(s) of $workload, seeds $seed..$last, GOMAXPROCS=1"
s=$seed
while [ "$s" -le "$last" ]; do
    GOMAXPROCS=1 "$tmp/bench" -child "$workload" -seed "$s"
    s=$((s + 1))
done
echo
echo "== CPU, top 25 by cumulative time, $rounds round(s) merged"
go tool pprof -top -cum -nodecount=25 "$tmp/bench" "$tmp"/cpu-*.pprof 2>/dev/null | sed -n '/flat%/,$p'
echo
# The share of CPU samples with an encoding/json frame anywhere on the stack
# (pprof's -focus): what reflection-driven JSON costs, callers' bodies and
# GSI frames alike.
json=$(go tool pprof -top -focus='^encoding/json\.' -nodefraction=0 -nodecount=1000000 \
    "$tmp/bench" "$tmp"/cpu-*.pprof 2>/dev/null |
    sed -n 's/^Showing nodes accounting for [^,]*, \([0-9.]*\)% of .*/\1/p')
echo "encoding/json: ${json:-0} % of CPU over $rounds rounds"
echo
echo "== bytes allocated, top 25 functions, $rounds round(s) merged"
go tool pprof -sample_index=alloc_space -top -nodecount=25 "$tmp/bench" "$tmp"/allocs-*.pprof 2>/dev/null | sed -n '/flat%/,$p'
echo
# layers <sample index> <unit> <profile>...: the per-layer table of the
# merged profiles, by the rule in the header. pprof -traces prints each
# distinct stack as a separator line, an optional "bytes:" tag line, the
# sample value with the innermost frame, and the frames around it, one a line.
layers() {
    index=$1 unit=$2
    shift 2
    go tool pprof -sample_index="$index" -traces "$tmp/bench" "$@" 2>/dev/null | awk -v unit="$unit" '
    function charge() {
        if (v != "") {
            share[layer == "" ? "runtime/GC" : layer] += v
            total += v
        }
        v = ""; layer = ""
    }
    function value(s) { # pprof prints a time with its unit; charge milliseconds
        if (s ~ /ms$/) return s + 0
        if (s ~ /(us|µs)$/) return s / 1000
        if (s ~ /ns$/) return s / 1e6
        if (s ~ /s$/) return s * 1000
        return s + 0
    }
    /^-+\+-+$/ { charge(); top = 1; next }
    $1 == "bytes:" { next }
    top { v = value($1); $1 = ""; top = 0 }
    layer == "" && v != "" {
        sub(/^ +/, "")
        if (match($0, /^cogrid\/internal\/[^.\/]+/)) layer = substr($0, 17, RLENGTH - 16)
    }
    END {
        charge()
        for (l in share) printf "%-14s %6.1f %%  %12.0f %s\n", l, 100 * share[l] / total, share[l], unit
        printf "%-14s %6.1f %%  %12.0f %s\n", "(total)", 100, total, unit
    }' | sort -k2,2nr
}
echo "== CPU by layer, $rounds round(s) merged (innermost cogrid/internal/<pkg> frame, else runtime/GC)"
layers cpu ms "$tmp"/cpu-*.pprof
echo
echo "== allocated objects by layer, $rounds round(s) merged (same rule)"
layers alloc_objects objects "$tmp"/allocs-*.pprof
echo
echo "$tmp"
