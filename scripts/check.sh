#!/bin/sh
# check.sh — the full verification gate: vet, build, tests, race tests,
# the examples and the smoke runs of the study binaries.
#
# Usage:
#   scripts/check.sh          # everything, including the full -race run
#   QUICK=1 scripts/check.sh  # -short mode for both test passes (skips
#                             # soak/stress tests; suits pre-commit hooks)
set -eu
cd "$(dirname "$0")/.."

short=""
if [ "${QUICK:-0}" = "1" ]; then
    short="-short"
fi

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -shuffle=on $short ./..."
go test -shuffle=on $short ./...

echo "== go test -race -shuffle=on $short ./..."
go test -race -shuffle=on $short ./...

# The programs under examples/ are the library's first users and nothing
# else runs them: each is built and run, in a scratch directory that takes
# what it writes (instrument's trace), and must exit 0.
echo "== examples (every program under examples/ exits 0)"
examples=$(mktemp -d)
for dir in examples/*/; do
    name=$(basename "$dir")
    go build -o "$examples/$name" "./$dir"
    if ! (cd "$examples" && "./$name" >/dev/null); then
        echo "FAIL: examples/$name exited non-zero" >&2
        rm -rf "$examples"
        exit 1
    fi
done
rm -rf "$examples"

echo "== chaos smoke (leak check)"
go run ./cmd/benchgrid -fig none -app chaos -smoke >/dev/null

echo "== trace smoke (causal-tracing invariants)"
go run ./cmd/tracegrid -smoke -check >/dev/null

# The two dstgrid smokes run under the race detector: whole grids, daemons
# that outlive their run included, checked against the run-token rule.
echo "== dst smoke (protocol invariants over 200 random scenarios, -race)"
go run -race ./cmd/dstgrid -seeds 200 -smoke >/dev/null

echo "== fed smoke (federated invariants + replica scaling check, dstgrid -race)"
go run -race ./cmd/dstgrid -fed-seeds 40 -smoke >/dev/null
go run ./cmd/benchgrid -fig none -app federation -smoke >/dev/null

echo "== fuzz seeds (envelope codec and JSON primitives, typed check-in bodies, hand-written JSON bodies, GSI frames, RSL, timer wheel, connection lifecycles, trace JSONL, the streamed counter exposition against the snapshot path, flight-recorder dumps, DST scenarios)"
go test -run Fuzz ./internal/wire ./internal/core ./internal/mds ./internal/gram ./internal/nis ./internal/broker \
    ./internal/federation ./internal/gsi ./internal/rsl ./internal/vtime ./internal/transport ./internal/trace ./internal/flightrec ./internal/dst >/dev/null

# The timer wheel beyond its seeds: pushes, pops and removals against the
# reference heap. A finding is kept as a corpus file with its fix.
echo "== fuzz timer wheel (10 s against the reference heap)"
go test -run '^$' -fuzz FuzzTimerWheel -fuzztime 10s ./internal/vtime

# Connection lifecycles beyond their seeds: every message delivered once, in
# order, or counted as dropped; a pipe back on the network exactly when it
# is quiet, and out of reach of the ends it served.
echo "== fuzz connection lifecycles (10 s)"
go test -run '^$' -fuzz FuzzConnLifecycle -fuzztime 10s ./internal/transport

echo "== slo smoke (zero false positives + bounded detection lag gate)"
go run ./cmd/benchgrid -fig none -app slo -smoke >/dev/null

echo "== scale smoke (every job done, none failed)"
go run ./cmd/benchgrid -fig none -app scale -smoke >/dev/null

# Enforced per-package coverage floor for the kernel and the LRM — the
# two packages the million-scale fast paths live in. Unlike the
# report-only total below, a drop here fails the gate: an untested wheel
# level or backfill branch is exactly where a scale regression hides.
kernel_floor=70
echo "== kernel coverage gate (floor: ${kernel_floor}% for internal/vtime, internal/lrm)"
for pkg in ./internal/vtime ./internal/lrm; do
    go test $short -coverprofile=.cover.pkg.out "$pkg" >/dev/null
    pct=$(go tool cover -func=.cover.pkg.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
    rm -f .cover.pkg.out
    echo "$pkg statement coverage: ${pct}%"
    if [ "$(printf '%s\n' "$pct" "$kernel_floor" | sort -g | head -1)" != "$kernel_floor" ]; then
        echo "FAIL: $pkg coverage ${pct}% is below the enforced ${kernel_floor}% floor" >&2
        exit 1
    fi
done

if [ "${QUICK:-0}" != "1" ]; then
    # The repository's benchmark end to end, one second per workload:
    # too short to measure anything, long enough for its correctness
    # gates (which set its exit status) to see every workload and layer.
    echo "== benchmark smoke (go run ./bench --seconds 1: its own correctness gates)"
    go run ./bench --seconds 1 >/dev/null

    # Report-only coverage floor: warn when total statement coverage
    # drops below the floor, but do not fail the gate — coverage is a
    # trend indicator here, not a merge blocker.
    cover_floor=70
    # The tests run once more here, and a failure still fails the gate; its
    # output is kept aside so the failing tests can be named.
    echo "== coverage (report-only floor: ${cover_floor}%)"
    cover_log=$(mktemp)
    if ! go test ./... -coverprofile=.cover.out >"$cover_log" 2>&1; then
        echo "FAIL: go test ./... -coverprofile failed:" >&2
        grep -E '^[[:space:]]*--- FAIL|^FAIL' "$cover_log" >&2 || tail -n 20 "$cover_log" >&2
        rm -f "$cover_log" .cover.out
        exit 1
    fi
    rm -f "$cover_log"
    total=$(go tool cover -func=.cover.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
    rm -f .cover.out
    echo "total statement coverage: ${total}%"
    if [ "$(printf '%s\n' "$total" "$cover_floor" | sort -g | head -1)" != "$cover_floor" ]; then
        echo "WARNING: total coverage ${total}% is below the ${cover_floor}% floor" >&2
    fi
fi

echo "ok: all checks passed"
