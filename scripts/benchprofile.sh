#!/bin/sh
# benchprofile.sh — CPU and allocation profiles of rounds of the committed
# benchmark, without editing bench/: the question every performance issue
# starts from ("where does duroc_wide's time go, and its bytes?") answered by
# the program the claim will be measured with, not by a hand-patched copy.
#
# Usage:
#   scripts/benchprofile.sh <workload> [seed=7] [rounds=1] [baseline]
#
# <workload> is one of the benchmark's five (BENCHMARK.json), or "layers".
# The script profiles the timed window of a round and nothing else: a
# generated copy of bench/workloads.go starts the CPU profile when the round
# opens its window (round.begin) and stops it when the window closes
# (round.end), writing an allocation profile at both points; what a round
# does after its window (the traced round's analysis and checks) is in
# neither. A "layers" child has no timed window, so a generated copy of
# bench/main.go profiles its whole run instead. The script builds ./bench with
# the copies laid over the originals (go build -overlay, with one added file
# holding the profiling helpers; the working tree is read, not written), and
# runs `rounds` `-child <workload> -seed <s>` rounds, s = seed ..
# seed+rounds-1, at GOMAXPROCS=1, as the benchmark's own rounds run. It
# prints each round's result line, then the top 25 entries by cumulative CPU
# time, the share of CPU spent in encoding/json, the top 25 functions by
# bytes allocated and the top 25 by objects allocated, and three per-layer
# tables, CPU time, allocated objects and allocated bytes, over every round's
# profile merged (allocations net of the profile taken when the window
# opened, pprof -base): one round is about 130 CPU samples, too few to rank
# anything under 5 %. Allocations are sampled one per 4 KiB allocated
# (runtime.MemProfileRate, set when the binary starts), not the runtime's
# default one per 512 KiB, so one round ranks a site of 1 % of the objects;
# the finer sampling slows the round further. The allocated-objects table
# ends with allocations per op: each layer's share times the rounds' mean of
# mallocs / ops, read from the result lines above, so the column sums to the
# end-to-end allocs_per_op a -child round reports (a "layers" child prints
# no such line and gets no column).
#
# The per-layer rule: each sample is charged whole to the innermost frame of
# its stack whose function is in a package cogrid/internal/<pkg>, and that
# <pkg> is its layer; a sample with no such frame (the collector, the
# scheduler, the benchmark's own main package) is charged to runtime/GC. So a
# layer's row is its self cost plus what it spends in the standard library,
# and each table sums to 100 %. It leaves cpu-<s>.pprof, allocs-<s>.pprof,
# allocs-begin-<s>.pprof and the binary in a temporary directory whose name
# is the last line, for `go tool pprof -list`, `-peek`,
# `-sample_index=alloc_objects` and `-sample_index=alloc_space` (name every
# round's file to merge them, and pass the allocs-begin files as -base).
#
# The copies are made by replacing three anchor lines: the opening lines of
# round.begin and round.end in bench/workloads.go, and the runChild call in
# bench/main.go. If any is no longer there exactly once the script stops and
# says so, since a profile of something else would be worse than none.
# Profiling slows the round: read shares from it, and take
# wall-clock numbers from benchpair.sh.
#
# With a fourth argument, a second workload (say broker_open beside
# broker_open_obs), the script first profiles that baseline for the same
# seeds and rounds, keeping its files in the subdirectory base/, and ends
# with what <workload> spends beyond it per op: CPU (µs), objects and bytes
# (KB) allocated, each by layer and for the 15 functions whose flat cost
# grew the most, with both sides' per-op values beside the difference. A
# side's per-op value is its CPU over its ops; objects and bytes are a
# layer's or function's share of the profile times the rounds' mean of
# mallocs / ops or alloc_bytes / ops from the result lines, as in the
# objects table. Baseline rounds run first, then <workload>'s.
set -eu

if [ $# -lt 1 ] || [ $# -gt 4 ]; then
    sed -n '2,64p' "$0" >&2
    exit 2
fi
workload=$1
seed=${2:-7}
rounds=${3:-1}
baseline=${4:-}

cd "$(dirname "$0")/.."
root=$(pwd)
tmp=$(mktemp -d)

# anchor <from> <to> <line> <replacement>...: <to> is <from> with the one
# line equal to <line> replaced by the replacement lines.
anchor() {
    from=$1 to=$2 line=$3
    shift 3
    printf '%s\n' "$@" >"$tmp/replacement"
    awk -v line="$line" -v rep="$tmp/replacement" '
    $0 == line { while ((getline r < rep) > 0) print r; close(rep); found++; next }
    { print }
    END { exit found == 1 ? 0 : 1 }' "$from" >"$to" || {
        echo "benchprofile: bench/ no longer has the line \"$line\" exactly once; update scripts/benchprofile.sh" >&2
        rm -rf "$tmp"
        exit 2
    }
}
anchor bench/workloads.go "$tmp/begin.go" 'func (r *round) begin() {' 'func (r *round) begin() {' '	defer profileStart(r.Seed)'
anchor "$tmp/begin.go" "$tmp/workloads.go" 'func (r *round) end() {' 'func (r *round) end() {' '	defer profileStop(r.Seed)'
anchor bench/main.go "$tmp/main.go" '		runChild(*child, *seed, *traced, time.Unix(0, *spawned))' \
    '		if *child == "layers" {' '			profileStart(*seed)' '			defer profileStop(*seed)' '		}' \
    '		runChild(*child, *seed, *traced, time.Unix(0, *spawned))'
cat >"$tmp/profile.go" <<EOF
package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

var profileCPU *os.File

// Sample allocations finely enough to rank small sites; set before main
// runs, so that every allocation is sampled at the one rate.
func init() { runtime.MemProfileRate = 4096 }

func profileStart(seed int64) {
	profileAllocs(fmt.Sprintf("$tmp/allocs-begin-%d.pprof", seed))
	f, err := os.Create(fmt.Sprintf("$tmp/cpu-%d.pprof", seed))
	must(err)
	must(pprof.StartCPUProfile(f))
	profileCPU = f
}

func profileStop(seed int64) {
	pprof.StopCPUProfile()
	must(profileCPU.Close())
	profileAllocs(fmt.Sprintf("$tmp/allocs-%d.pprof", seed))
}

func profileAllocs(path string) {
	runtime.GC() // the allocation profile is complete up to the last collection
	f, err := os.Create(path)
	must(err)
	must(pprof.Lookup("allocs").WriteTo(f, 0))
	must(f.Close())
}
EOF
printf '{"Replace": {"%s/bench/%s": "%s/%s", "%s/bench/%s": "%s/%s", "%s/bench/%s": "%s/%s"}}\n' \
    "$root" main.go "$tmp" main.go "$root" workloads.go "$tmp" workloads.go "$root" zz_profile.go "$tmp" profile.go \
    >"$tmp/overlay.json"
go build -overlay "$tmp/overlay.json" -o "$tmp/bench" ./bench

last=$((seed + rounds - 1))
# profile_rounds <workload>: the rounds, each leaving its result line and
# profiles in $tmp.
profile_rounds() {
    echo "== $rounds -child round(s) of $1, seeds $seed..$last, GOMAXPROCS=1"
    s=$seed
    while [ "$s" -le "$last" ]; do
        GOMAXPROCS=1 "$tmp/bench" -child "$1" -seed "$s" >"$tmp/result-$s.txt"
        cat "$tmp/result-$s.txt"
        s=$((s + 1))
    done
}
if [ -n "$baseline" ]; then
    profile_rounds "$baseline"
    mkdir "$tmp/base"
    mv "$tmp"/result-*.txt "$tmp"/cpu-*.pprof "$tmp"/allocs-*.pprof "$tmp/base/"
    echo
fi
profile_rounds "$workload"
# result <field> <dir>: the rounds' mean of <field> / ops from the result
# lines in <dir>; empty for a "layers" child, whose output has no such line.
result() {
    cat "$2"/result-*.txt | awk -v key="\"$1\":" '
    match($0, key "[0-9]+") { m = substr($0, RSTART + length(key), RLENGTH - length(key))
        if (match($0, /"ops":[0-9]+/) && (o = substr($0, RSTART + 6, RLENGTH - 6)) > 0) { sum += m / o; n++ } }
    END { if (n > 0) printf "%.6f", sum / n }'
}
per_op=$(result mallocs "$tmp")
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
# The allocation tables count what each window allocated: the profile
# written at its close, less the one written at its opening.
base=$(for f in "$tmp"/allocs-begin-*.pprof; do printf ' -base %s' "$f"; done)
echo "== bytes allocated, top 25 functions, $rounds round(s) merged"
go tool pprof -sample_index=alloc_space -top -nodecount=25 $base "$tmp/bench" "$tmp"/allocs-[0-9]*.pprof 2>/dev/null |
    sed -n '/flat%/,$p'
echo
echo "== objects allocated, top 25 functions, $rounds round(s) merged"
go tool pprof -sample_index=alloc_objects -top -nodecount=25 $base "$tmp/bench" "$tmp"/allocs-[0-9]*.pprof 2>/dev/null |
    sed -n '/flat%/,$p'
echo
# layer_sums <sample index> <pprof flags> <profile>...: one line per
# layer, its name and its summed value (milliseconds, MB or objects), by the
# rule in the header. pprof -traces prints each distinct stack as a
# separator line, an optional "bytes:" tag line, the sample value with the
# innermost frame, and the frames around it, one a line.
layer_sums() {
    index=$1 flags=$2
    shift 2
    go tool pprof -sample_index="$index" -traces $flags "$tmp/bench" "$@" 2>/dev/null | awk '
    function charge() {
        if (v != "") {
            share[layer == "" ? "runtime/GC" : layer] += v
            total += v
        }
        v = ""; layer = ""
    }
    function value(s) { # pprof prints a time or a size with its unit; charge milliseconds or MB
        if (s ~ /GB$/) return s * 1024
        if (s ~ /MB$/) return s + 0
        if (s ~ /kB$/) return s / 1024
        if (s ~ /[0-9]B$/) return s / 1048576
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
        for (l in share) print l, share[l]
    }'
}
# layers <sample index> <unit> <per op> <pprof flags> <profile>...: the
# per-layer table of the merged profiles, with a last column of each
# layer's share of <per op> when that is not empty.
layers() {
    index=$1 unit=$2 perop=$3 flags=$4
    shift 4
    layer_sums "$index" "$flags" "$@" | awk -v unit="$unit" -v perop="$perop" '
    { share[$1] = $2; total += $2 }
    END {
        f = unit == "MB" ? "%-14s %6.1f %%  %12.1f %s" : "%-14s %6.1f %%  %12.0f %s"
        for (l in share) {
            printf f, l, 100 * share[l] / total, share[l], unit
            if (perop != "") printf "  %9.1f /op", perop * share[l] / total
            printf "\n"
        }
        printf f, "(total)", 100, total, unit
        if (perop != "") printf "  %9.1f /op", perop
        printf "\n"
    }' | sort -k2,2nr
}
echo "== CPU by layer, $rounds round(s) merged (innermost cogrid/internal/<pkg> frame, else runtime/GC)"
layers cpu ms "" "" "$tmp"/cpu-*.pprof
echo
echo "== allocated objects by layer, $rounds round(s) merged (same rule; /op: share x the rounds' mean mallocs/ops)"
layers alloc_objects objects "$per_op" "$base" "$tmp"/allocs-[0-9]*.pprof
echo
echo "== allocated bytes by layer, $rounds round(s) merged (same rule)"
layers alloc_space MB "" "$base" "$tmp"/allocs-[0-9]*.pprof
echo

# func_sums <sample index> <pprof flags> <profile>...: one line per
# function, its flat value (milliseconds, MB or objects) and its name.
func_sums() {
    index=$1 flags=$2
    shift 2
    go tool pprof -sample_index="$index" -top -nodecount=1000000 $flags "$tmp/bench" "$@" 2>/dev/null |
        sed -n '/flat%/,$p' | sed 1d | awk '
    function value(s) {
        if (s ~ /GB$/) return s * 1024
        if (s ~ /MB$/) return s + 0
        if (s ~ /kB$/) return s / 1024
        if (s ~ /[0-9]B$/) return s / 1048576
        if (s ~ /ms$/) return s + 0
        if (s ~ /(us|µs)$/) return s / 1000
        if (s ~ /ns$/) return s / 1e6
        if (s ~ /s$/) return s * 1000
        return s + 0
    }
    { v = value($1); $1 = $2 = $3 = $4 = $5 = ""; sub(/^ +/, ""); print v, $0 }'
}
# beyond <title> <unit> <kind> <scale> <base scale> <sums> <base sums>:
# what the workload spends beyond the baseline per op, from two lists of
# "key value" lines (a layer and its value, or a function's value and
# name, as <kind> says). A side's per-op value is its value times its
# scale when <unit> is ms (CPU over ops, shown in µs), else its share of
# the side's total times its scale. Layers are listed by the difference;
# functions, the 15 that grew the most.
beyond() {
    title=$1 unit=$2 kind=$3 scale=$4 bscale=$5
    echo "== $title"
    { echo "$6" | sed 's/^/A /'; echo "$7" | sed 's/^/B /'; } | awk -v unit="$unit" -v kind="$kind" \
        -v scale="$scale" -v bscale="$bscale" '
    $1 == "A" || $1 == "B" {
        side = $1; $1 = ""; sub(/^ +/, "")
        if (kind == "layer") { key = $1; v = $2 } else { v = $1; $1 = ""; sub(/^ +/, ""); key = $0 }
        if (key == "") next
        val[side, key] += v; tot[side] += v; keys[key] = 1
    }
    END {
        for (k in keys) {
            a = unit == "ms" ? val["A", k] * scale : (tot["A"] > 0 ? scale * val["A", k] / tot["A"] : 0)
            b = unit == "ms" ? val["B", k] * bscale : (tot["B"] > 0 ? bscale * val["B", k] / tot["B"] : 0)
            printf "%12.2f %12.2f %12.2f  %s\n", a - b, a, b, k
        }
    }' | sort -k1,1nr | { if [ "$kind" = func ]; then head -15; else cat; fi; } | awk -v unit="$unit" '
    BEGIN { u = unit == "ms" ? "us" : unit; printf "%12s %12s %12s  %s\n", "beyond/op", "this/op", "base/op", "(" u ")" }
    { print }'
    echo
}
if [ -n "$baseline" ]; then
    bbase=$(for f in "$tmp"/base/allocs-begin-*.pprof; do printf ' -base %s' "$f"; done)
    ops=$(cat "$tmp"/result-*.txt | awk 'match($0, /"ops":[0-9]+/) { n += substr($0, RSTART + 6, RLENGTH - 6) } END { print n }')
    bops=$(cat "$tmp"/base/result-*.txt | awk 'match($0, /"ops":[0-9]+/) { n += substr($0, RSTART + 6, RLENGTH - 6) } END { print n }')
    us=$(awk -v n="$ops" 'BEGIN { print 1000 / n }')
    bus=$(awk -v n="$bops" 'BEGIN { print 1000 / n }')
    kb=$(awk -v b="$(result alloc_bytes "$tmp")" 'BEGIN { print b / 1024 }')
    bkb=$(awk -v b="$(result alloc_bytes "$tmp/base")" 'BEGIN { print b / 1024 }')
    bper_op=$(result mallocs "$tmp/base")
    echo "=== $workload beyond $baseline, per op, $rounds round(s) of each"
    echo
    beyond "CPU by layer" ms layer "$us" "$bus" \
        "$(layer_sums cpu "" "$tmp"/cpu-*.pprof)" "$(layer_sums cpu "" "$tmp"/base/cpu-*.pprof)"
    beyond "CPU, top 15 functions by flat time beyond" ms func "$us" "$bus" \
        "$(func_sums cpu "" "$tmp"/cpu-*.pprof)" "$(func_sums cpu "" "$tmp"/base/cpu-*.pprof)"
    beyond "allocated objects by layer" objects layer "$per_op" "$bper_op" \
        "$(layer_sums alloc_objects "$base" "$tmp"/allocs-[0-9]*.pprof)" \
        "$(layer_sums alloc_objects "$bbase" "$tmp"/base/allocs-[0-9]*.pprof)"
    beyond "allocated objects, top 15 functions by flat count beyond" objects func "$per_op" "$bper_op" \
        "$(func_sums alloc_objects "$base" "$tmp"/allocs-[0-9]*.pprof)" \
        "$(func_sums alloc_objects "$bbase" "$tmp"/base/allocs-[0-9]*.pprof)"
    beyond "allocated bytes by layer" KB layer "$kb" "$bkb" \
        "$(layer_sums alloc_space "$base" "$tmp"/allocs-[0-9]*.pprof)" \
        "$(layer_sums alloc_space "$bbase" "$tmp"/base/allocs-[0-9]*.pprof)"
    beyond "allocated bytes, top 15 functions by flat size beyond" KB func "$kb" "$bkb" \
        "$(func_sums alloc_space "$base" "$tmp"/allocs-[0-9]*.pprof)" \
        "$(func_sums alloc_space "$bbase" "$tmp"/base/allocs-[0-9]*.pprof)"
fi
echo "$tmp"
