// Perfgrid is the performance observatory's harness: it runs the declared
// benchmark suite (internal/perf.Suite) plus the deterministic broker-load
// and federated-broker scenarios, and emits a schema-versioned
// BENCH_grid.json snapshot.
//
// Usage:
//
//	perfgrid [-out BENCH_grid.json] [-bench regexp] [-benchtime 1s]
//	         [-seed N] [-smoke] [-scale] [-compare BENCH_grid.json]
//	         [-threshold 0.2] [-strict] [-prom file] [-cpuprofile file]
//	         [-memprofile file]
//
// Modes compose: a single invocation can measure, write a fresh snapshot,
// and compare it against a committed baseline.
//
//   - -smoke shrinks benchtime to 20ms and validates the snapshot shape:
//     every layer series present and Histogram.Record at 0 allocs/op.
//   - -compare diffs the run against a baseline snapshot, printing a
//     benchstat-style table. Regressions beyond -threshold (default 20%
//     ns/op) are reported; with -strict or STRICT_BENCH=1 they are fatal.
//     Wall-clock noise makes that gate advisory by default. allocs/op is
//     a count, so a series that allocates more than its baseline (beyond
//     the smoke-run tolerance) is always fatal.
//   - -prom writes the scenario's Prometheus text exposition ("-" for
//     stdout) — byte-stable for a fixed -seed.
//   - -cpuprofile / -memprofile capture pprof profiles of the whole run.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"cogrid/internal/perf"
)

func main() {
	out := flag.String("out", "", "write the snapshot JSON to this file")
	benchRE := flag.String("bench", "", "regexp selecting suite benchmarks (default: all)")
	benchTime := flag.String("benchtime", "", "per-benchmark measuring time, e.g. 1s, 50ms, 100x (default 1s)")
	seed := flag.Int64("seed", 1, "seed for the deterministic scenario run")
	smoke := flag.Bool("smoke", false, "fast validation run: 20ms benchtime, checks snapshot shape and 0 allocs/op on the histogram hot path")
	compare := flag.String("compare", "", "baseline snapshot to diff this run against")
	threshold := flag.Float64("threshold", 0.20, "ns/op regression threshold for -compare")
	strict := flag.Bool("strict", false, "exit non-zero on regressions (also enabled by STRICT_BENCH=1)")
	prom := flag.String("prom", "", "write the scenario's Prometheus exposition to this file (\"-\" for stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run")
	memprofile := flag.String("memprofile", "", "write a heap profile after the run")
	scenarioOnly := flag.Bool("scenario-only", false, "skip wall-clock benchmarks, run only the deterministic scenario")
	scale := flag.Bool("scale", false, "also run the full-size B4 scale study (10⁶ jobs / 10⁴ machines, minutes of wall clock) and record it as the scale.b4.full series")
	flag.Parse()
	// Register the testing flags only after parsing perfgrid's own, so
	// -h stays readable and test.* flags cannot be set from the command
	// line directly.
	testing.Init()

	cfg := perf.RunConfig{
		BenchTime:    *benchTime,
		Seed:         *seed,
		SkipBench:    *scenarioOnly,
		SkipScenario: false,
	}
	if *smoke && cfg.BenchTime == "" {
		cfg.BenchTime = "20ms"
	}
	if *benchRE != "" {
		re, err := regexp.Compile(*benchRE)
		if err != nil {
			fatal(err)
		}
		cfg.BenchRE = re
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	snap, err := perf.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if *scale {
		snap.Series = append(snap.Series, perf.ScaleSeries(*seed)...)
	}
	snap.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	fmt.Fprintf(os.Stderr, "perfgrid: %d series measured in %v\n", len(snap.Series), time.Since(start).Round(time.Millisecond))

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if *smoke {
		if err := validateSmoke(snap, *scenarioOnly); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "perfgrid: smoke ok")
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := perf.WriteJSON(f, snap); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "perfgrid: snapshot written to %s\n", *out)
	}

	if *prom != "" {
		w := os.Stdout
		if *prom != "-" {
			f, err := os.Create(*prom)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		_, g, _ := perf.RunScenario(*seed)
		if err := g.WriteMetrics(w); err != nil {
			fatal(err)
		}
	}

	if *compare != "" {
		base, err := perf.ReadSnapshot(*compare)
		if err != nil {
			if os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "perfgrid: no baseline at %s, skipping compare\n", *compare)
				return
			}
			fatal(err)
		}
		res, err := perf.Compare(base, snap, *threshold)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Report(*threshold))
		if len(res.Regressions()) > 0 && (*strict || os.Getenv("STRICT_BENCH") == "1") {
			os.Exit(1)
		}
		for _, d := range res.Deltas {
			if d.AllocsGrown {
				os.Exit(1)
			}
		}
	}
}

// validateSmoke checks the acceptance shape of a snapshot: at least eight
// distinct series spanning the instrumented layers, and an allocation-free
// histogram hot path.
func validateSmoke(snap perf.Snapshot, scenarioOnly bool) error {
	if len(snap.Series) < 8 {
		return fmt.Errorf("smoke: only %d series, want >= 8", len(snap.Series))
	}
	if !scenarioOnly {
		h := snap.Find("histogram_record")
		if h == nil {
			return fmt.Errorf("smoke: histogram_record series missing")
		}
		if h.AllocsPerOp != 0 {
			return fmt.Errorf("smoke: histogram_record allocates %.2f/op, want 0", h.AllocsPerOp)
		}
		for _, name := range []string{"trace_export_jsonl", "rpc_call", "transport_roundtrip",
			"vtime_timer", "lrm_submit", "core_2pc", "broker_submit",
			"wire_encode", "wire_decode", "flightrec_record"} {
			if snap.Find(name) == nil {
				return fmt.Errorf("smoke: bench series %s missing", name)
			}
		}
		if f := snap.Find("flightrec_record"); f.AllocsPerOp != 0 {
			return fmt.Errorf("smoke: flightrec_record allocates %.2f/op, want 0", f.AllocsPerOp)
		}
	}
	for _, name := range []string{"scenario.broker.load", "scenario.vtime.kernel",
		"scenario.hist.rpc.call.latency", "scenario.hist.broker.request.latency",
		"scenario.fed.load", "scenario.fed.hist.fed.election.latency",
		"scenario.fed.hist.fed.handoff.time",
		"scenario.wire.json", "scenario.wire.binary", "scenario.wire.binary_batched",
		"scenario.slo.detection", "scenario.slo.flightrec"} {
		if snap.Find(name) == nil {
			return fmt.Errorf("smoke: scenario series %s missing", name)
		}
	}
	if s := snap.Find("scenario.slo.detection"); s.Values["alerts_fired"] == 0 ||
		s.Values["detection_lag_ms"] <= 0 {
		return fmt.Errorf("smoke: slo scenario detected nothing (fired %.0f, lag %.0fms)",
			s.Values["alerts_fired"], s.Values["detection_lag_ms"])
	}
	if s := snap.Find("scenario.slo.flightrec"); s.Values["dump_errors"] != 0 {
		return fmt.Errorf("smoke: slo scenario produced %.0f invalid flight dumps", s.Values["dump_errors"])
	}
	if s := snap.Find("scenario.broker.load"); s.Values["completed"] == 0 {
		return fmt.Errorf("smoke: scenario completed no requests")
	}
	if s := snap.Find("scenario.fed.load"); s.Values["completed"] == 0 || s.Values["elections"] == 0 {
		return fmt.Errorf("smoke: federation scenario did not exercise the failure path")
	}
	j, b := snap.Find("scenario.wire.json"), snap.Find("scenario.wire.binary")
	if j.Values["dropped"] != 0 || b.Values["dropped"] != 0 {
		return fmt.Errorf("smoke: wire scenario dropped messages (json %.0f, binary %.0f)",
			j.Values["dropped"], b.Values["dropped"])
	}
	if b.Values["wire_bytes"] >= j.Values["wire_bytes"] {
		return fmt.Errorf("smoke: binary wire bytes %.0f not below JSON %.0f",
			b.Values["wire_bytes"], j.Values["wire_bytes"])
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfgrid:", err)
	os.Exit(1)
}
