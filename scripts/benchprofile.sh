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
# time, the share of CPU spent in encoding/json, and the top 25 functions
# by bytes allocated, over every round's profile merged: one round is about
# 130 CPU samples, too few to rank anything under 5 %. It leaves cpu-<s>.pprof, allocs-<s>.pprof and the
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
    sed -n '2,30p' "$0" >&2
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
echo "$tmp"
