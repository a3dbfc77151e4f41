// Package vtime_test holds the kernel-equivalence suite: full DST
// scenarios executed twice, once on the reference heap timer engine and
// once on the production timing wheel, with every observable artifact
// diffed byte for byte. The wheel earns its place in the kernel not by
// unit tests alone but by being indistinguishable from the engine it
// replaced under the harshest workloads the repo can generate —
// co-allocations, broker federations, injected faults, background load.
//
// The heap is not reachable from production code: it lives in this
// package's test files, and a run gets it through vtime.UseHeapTimers
// (export_test.go), which swaps the store every kernel is built with until
// it is restored. That is package state, so nothing here is parallel: each
// run installs the heap, builds and runs its grid, and restores before the
// next kernel — the wheel's — is constructed.
//
// This lives in an external test package because the dst harness imports
// vtime; the suite still runs under `go test ./internal/vtime/...`, where
// the engine it locks down lives.
package vtime_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"cogrid/internal/dst"
	"cogrid/internal/experiments"
	"cogrid/internal/vtime"
)

// equivSeeds is how many generated scenarios the suite replays per
// profile. Each seed produces a different machine mix, driver, fault
// schedule, and background workload.
const equivSeeds = 16

// The two engines a run is made on.
const (
	heap  = "heap"
	wheel = "wheel"
)

// onEngine runs fn with kernels built on the given engine.
func onEngine(engine string, fn func()) {
	if engine == heap {
		defer vtime.UseHeapTimers()()
	}
	fn()
}

// runEngine executes one scenario on the given engine, returning the
// invariant verdict (as canonical JSON) and the byte artifacts.
func runEngine(t *testing.T, sc dst.Scenario, engine string) ([]byte, dst.Artifacts) {
	t.Helper()
	var arts dst.Artifacts
	var res dst.RunResult
	var err error
	onEngine(engine, func() { res, err = dst.Run(sc, dst.RunOptions{Artifacts: &arts}) })
	if err != nil {
		t.Fatalf("engine %v: %v", engine, err)
	}
	verdict, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("engine %v: marshal result: %v", engine, err)
	}
	return verdict, arts
}

// diffByteArtifact fails with a focused message locating the first
// differing line, so an equivalence break points at the drifting record
// rather than dumping two multi-megabyte blobs.
func diffByteArtifact(t *testing.T, name string, heap, wheel []byte) {
	t.Helper()
	if bytes.Equal(heap, wheel) {
		return
	}
	hLines := bytes.Split(heap, []byte("\n"))
	wLines := bytes.Split(wheel, []byte("\n"))
	n := len(hLines)
	if len(wLines) < n {
		n = len(wLines)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(hLines[i], wLines[i]) {
			t.Fatalf("%s: line %d differs\n  heap:  %s\n  wheel: %s", name, i+1, hLines[i], wLines[i])
		}
	}
	t.Fatalf("%s: line counts differ: heap %d, wheel %d", name, len(hLines), len(wLines))
}

// TestKernelEquivalenceDST is the lockdown: sixteen generated DST
// scenarios, each run start-to-finish on both timer engines, demanding
// byte-identical trace JSONL, gauge CSV, Prometheus exposition, and
// invariant verdicts. Any divergence — an event reordered across a virtual
// instant, a timer fired out of (when, seq) order, a gauge sampled
// differently — fails with the first differing line.
func TestKernelEquivalenceDST(t *testing.T) {
	for seed := int64(1); seed <= equivSeeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sc := dst.Generate(seed, dst.SmokeProfile)
			heapVerdict, heapArts := runEngine(t, sc, heap)
			wheelVerdict, wheelArts := runEngine(t, sc, wheel)
			diffByteArtifact(t, "invariant verdict", heapVerdict, wheelVerdict)
			diffByteArtifact(t, "trace JSONL", heapArts.TraceJSONL, wheelArts.TraceJSONL)
			diffByteArtifact(t, "gauge CSV", heapArts.GaugeCSV, wheelArts.GaugeCSV)
			diffByteArtifact(t, "metrics exposition", heapArts.Metrics, wheelArts.Metrics)
			if len(heapArts.TraceJSONL) == 0 {
				t.Fatal("trace artifact is empty; the equivalence check compared nothing")
			}
		})
	}
}

// TestKernelSelfDeterminism pins schedule-independence directly: the same
// scenario run twice on the same engine must produce byte-identical
// artifacts, even when the Go scheduler is perturbed (the -race build is
// the harshest perturbation check.sh applies). This is the property the
// run-token scheduler provides; before it, a machine-crash scenario could
// flip an SLO alert depending on which of two same-instant wakes won the
// race. Cross-engine equivalence (the tests below) would be vacuous if a
// single engine could not even agree with itself.
func TestKernelSelfDeterminism(t *testing.T) {
	for _, engine := range []string{heap, wheel} {
		t.Run(engine, func(t *testing.T) {
			sc := dst.Generate(3, dst.SmokeProfile)
			aVerdict, aArts := runEngine(t, sc, engine)
			bVerdict, bArts := runEngine(t, sc, engine)
			diffByteArtifact(t, "invariant verdict", aVerdict, bVerdict)
			diffByteArtifact(t, "trace JSONL", aArts.TraceJSONL, bArts.TraceJSONL)
			diffByteArtifact(t, "gauge CSV", aArts.GaugeCSV, bArts.GaugeCSV)
			diffByteArtifact(t, "metrics exposition", aArts.Metrics, bArts.Metrics)
		})
	}
}

// TestKernelEquivalenceReplaysRegressionScenarios replays the shrunk
// regression scenarios the DST corpus has accumulated — each one a real
// bug's minimal reproducer — on both engines. These are the exact
// interleavings that broke the system before; the wheel must walk through
// them identically.
func TestKernelEquivalenceReplaysRegressionScenarios(t *testing.T) {
	scenarios, err := dst.RegressionScenarios()
	if err != nil {
		t.Fatalf("loading regression corpus: %v", err)
	}
	if len(scenarios) == 0 {
		t.Fatal("no regression scenarios found")
	}
	for _, named := range scenarios {
		t.Run(named.Name, func(t *testing.T) {
			heapVerdict, heapArts := runEngine(t, named.Scenario, heap)
			wheelVerdict, wheelArts := runEngine(t, named.Scenario, wheel)
			diffByteArtifact(t, "invariant verdict", heapVerdict, wheelVerdict)
			diffByteArtifact(t, "trace JSONL", heapArts.TraceJSONL, wheelArts.TraceJSONL)
			diffByteArtifact(t, "gauge CSV", heapArts.GaugeCSV, wheelArts.GaugeCSV)
			diffByteArtifact(t, "metrics exposition", heapArts.Metrics, wheelArts.Metrics)
		})
	}
}

// TestKernelEquivalenceScaleSmoke is the scale-path differential: B4 at its
// smoke size — 10⁴ batch jobs over 10² machines, raw on the kernel, deep
// into the wheel's upper levels and the release index, where the
// protocol-heavy DST scenarios are too small to reach — once on each
// engine. Every job must be accounted for on both, and the rows must agree
// on every virtual-time column.
func TestKernelEquivalenceScaleSmoke(t *testing.T) {
	rows := make(map[string]experiments.ScaleRow)
	for _, engine := range []string{heap, wheel} {
		onEngine(engine, func() {
			res := experiments.ScaleStudy(experiments.ScaleSmokeConfig(1))
			rows[engine] = res.Rows[0]
		})
		if row := rows[engine]; row.Done != int64(row.Jobs) || row.Failed != 0 {
			t.Errorf("%s: done=%d failed=%d of %d jobs", engine, row.Done, row.Failed, row.Jobs)
		}
	}
	if !rows[heap].VirtualEqual(rows[wheel]) {
		t.Errorf("engines diverge on virtual-time columns:\n  heap:  %+v\n  wheel: %+v", rows[heap], rows[wheel])
	}
}
