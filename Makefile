GO ?= go

.PHONY: check quick vet build test race bench bench-smoke chaos-smoke trace-smoke dst-smoke fed-smoke slo-smoke scale-smoke cover

# The full verification gate (vet, build, test, race test).
check:
	sh scripts/check.sh

# The same gate in -short mode: skips soak/stress tests.
quick:
	QUICK=1 sh scripts/check.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The repository's benchmark (BENCHMARK.json, bench/README.md): five
# workloads on two clocks, every metric by name with its unit, non-zero
# exit if a correctness gate fails. About 90 s.
bench:
	$(GO) run ./bench

# A seconds-scale broker load study on the tiny seed configuration —
# a fast end-to-end smoke of the broker service and its reporting.
bench-smoke:
	$(GO) run ./cmd/benchgrid -fig none -app broker -smoke

# A seconds-scale chaos study: faults injected mid-run, exits non-zero
# if any allocation leaks or a recorded orphan is never reaped.
chaos-smoke:
	$(GO) run ./cmd/benchgrid -fig none -app chaos -smoke

# Runs the causal-trace analyzer over a B1 smoke run and exits non-zero
# on any unattributed event, broken request tree, or critical path that
# does not sum exactly to its request's end-to-end latency.
trace-smoke:
	$(GO) run ./cmd/tracegrid -smoke -check

# Deterministic simulation testing: 200 randomized co-allocation
# scenarios checked against the protocol invariant library; exits
# non-zero (with a shrunk, replayable reproduction) on any violation.
# See TESTING.md for the seed-replay workflow.
dst-smoke:
	$(GO) run ./cmd/dstgrid -seeds 200 -smoke

# Federation smoke: 40 randomized multi-replica scenarios (leader and
# follower crashes, elections, shard hand-offs) through the DST
# invariant library, then the 1-vs-2-replica B6 scaling rows — exits
# non-zero if any invariant is violated or the two-replica row fails to
# beat the single replica's throughput at equal tail latency.
fed-smoke:
	$(GO) run ./cmd/dstgrid -fed-seeds 40 -smoke
	$(GO) run ./cmd/benchgrid -fig none -app federation -smoke

# SLO smoke: the B7 detection-latency study on the seconds-long chaos
# configuration — exits non-zero unless the fault-free row is completely
# silent (zero alerts, zero flight-recorder dumps) and the faulted row
# pages within the detection budget with one validated black box per fire.
slo-smoke:
	$(GO) run ./cmd/benchgrid -fig none -app slo -smoke

# Scale smoke: the B4 job stream on a seconds-long configuration — exits
# non-zero if any job fails or goes missing. (The same run on the reference
# heap timer engine, compared column by column, is
# `go test ./internal/vtime -run TestKernelEquivalenceScaleSmoke`.)
scale-smoke:
	$(GO) run ./cmd/benchgrid -fig none -app scale -smoke

# Total statement coverage across all packages. check.sh warns (but
# does not fail) when the total drops below its floor.
cover:
	$(GO) test ./... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1
