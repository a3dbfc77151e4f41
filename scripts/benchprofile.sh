#!/bin/sh
# benchprofile.sh — CPU and allocation profiles of one round of the committed
# benchmark, without editing bench/: the question every performance issue
# starts from ("where does duroc_wide's time go, and its bytes?") answered by
# the program the claim will be measured with, not by a hand-patched copy.
#
# Usage:
#   scripts/benchprofile.sh <workload> [seed=7]
#
# <workload> is one of the benchmark's five (BENCHMARK.json), or "layers".
# The script generates a copy of bench/main.go in which the child's round
# (the runChild call) runs between pprof.StartCPUProfile and a heap profile
# written after a collection, builds ./bench with that copy laid over the
# original (go build -overlay; the working tree is read, not written), and
# runs one `-child <workload> -seed <seed>` round at GOMAXPROCS=1, as the
# benchmark's own rounds run. It prints the round's result line, the top 25
# entries by cumulative CPU time and the top 25 functions by bytes allocated,
# and leaves cpu.pprof, allocs.pprof and the binary in a temporary directory
# whose name is the last line, for `go tool pprof -list`, `-peek` and
# `-sample_index=alloc_objects`.
#
# The copy is made by replacing two anchor lines of bench/main.go, the
# import block's opening and the runChild call; if either is no longer there
# exactly once the script stops and says so, since a profile of something
# else would be worse than none. Profiling slows the round a little: read
# shares from it, and take wall-clock numbers from benchpair.sh.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    sed -n '2,26p' "$0" >&2
    exit 2
fi
workload=$1
seed=${2:-7}

cd "$(dirname "$0")/.."
root=$(pwd)
tmp=$(mktemp -d)

awk -v dir="$tmp" '
$0 == "import (" {
    print; print "\t\"runtime\""; print "\t\"runtime/pprof\""
    imports++; next
}
$0 == "\t\trunChild(*child, *seed, *traced, time.Unix(0, *spawned))" {
    print "\t\tcpu, err := os.Create(\"" dir "/cpu.pprof\")"
    print "\t\tmust(err)"
    print "\t\tmust(pprof.StartCPUProfile(cpu))"
    print
    print "\t\tpprof.StopCPUProfile()"
    print "\t\tmust(cpu.Close())"
    print "\t\truntime.GC() // the allocation profile is complete up to the last collection"
    print "\t\tallocs, err := os.Create(\"" dir "/allocs.pprof\")"
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

echo "== one -child round of $workload, seed $seed, GOMAXPROCS=1"
GOMAXPROCS=1 "$tmp/bench" -child "$workload" -seed "$seed"
echo
echo "== CPU, top 25 by cumulative time"
go tool pprof -top -cum -nodecount=25 "$tmp/bench" "$tmp/cpu.pprof" 2>/dev/null | sed -n '/flat%/,$p'
echo
echo "== bytes allocated, top 25 functions"
go tool pprof -sample_index=alloc_space -top -nodecount=25 "$tmp/bench" "$tmp/allocs.pprof" 2>/dev/null | sed -n '/flat%/,$p'
echo
echo "$tmp"
