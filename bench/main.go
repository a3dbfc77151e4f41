// Command bench is the repository's benchmark: five workloads measured on
// two clocks from outside the program. README.md explains the workloads,
// the metrics and the measurement protocol; BENCHMARK.json is the
// machine-readable contract.
//
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	go run ./bench                 all five workloads, end-to-end metrics
//	go run ./bench --trace 1       all five workloads, per-layer metrics
//	go run ./bench -aa 3           A/A run-to-run spread against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, interleaved)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "measuring time per workload")
		traceOn = flag.Int("trace", 0, "1 selects the traced run, which prints the per-layer metrics")
		aa      = flag.Int("aa", 0, "run 2N untraced invocations A B A B ... and compare the two sets' medians")
		child   = flag.String("child", "", "internal: run one round of this workload (or \"layers\") and print it")
		traced  = flag.Bool("traced", false, "internal: child records spans and per-layer counts")
		spawned = flag.Int64("spawned", 0, "internal: the parent's clock at spawn, Unix ns")
	)
	flag.Parse()
	if *child != "" {
		runChild(*child, *seed, *traced, time.Unix(0, *spawned))
		return
	}
	start := time.Now()
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	if *name != "" {
		if findWorkload(*name) == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		names = []string{*name}
	}
	ok := true
	if *aa > 0 {
		ok = runAA(names, *seed, *seconds, *aa)
	} else {
		run, list := measure, endToEnd
		if *traceOn != 0 {
			run, list = measureLayers, perLayer
		}
		reports, err := run(names, *seed, *seconds)
		if err != nil {
			fatal(err)
		}
		for _, rep := range reports {
			ok = printReport(rep, list) && ok
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %.1f s elapsed\n", time.Since(start).Seconds())
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runChild is one round in a fresh process. Traced children keep their
// spans in memory and write them on the way out.
func runChild(kind string, seed int64, traced bool, spawned time.Time) {
	var spans *spanLog
	if traced {
		spans = newSpanLog()
	}
	var out childOut
	if kind == "layers" {
		out.Layers = runLayers(spans, 1)
	} else {
		w := findWorkload(kind)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", kind))
		}
		out.Round = &round{Workload: kind, Seed: seed, Traced: traced || w.observed, spawned: spawned, spans: spans}
		w.run(out.Round, seed, 1)
	}
	if spans != nil {
		must(os.MkdirAll(spanDir, 0o755))
		must(spans.write(filepath.Join(spanDir, "spans-"+kind+".json")))
	}
	must(json.NewEncoder(os.Stdout).Encode(out))
}

// spanDir is where the traced run leaves its span files, relative to the
// directory the benchmark is started from (the repository root).
const spanDir = "bench/out"

// printReport prints one workload's metrics by name with units, then the
// one-line JSON result, and reports whether every correctness gate held.
func printReport(rep report, list []metric) bool {
	fmt.Printf("%s: %d rounds, %d ops attempted, %d failed, %d latency samples per round\n",
		rep.workload, rep.rounds, rep.attempted, rep.failed, rep.samples)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range list {
		v := rep.metrics[m.name]
		fmt.Printf("  %-34s %16.6f %s\n", m.name, v, m.unit)
		out[m.name] = value{v, m.unit}
	}
	for _, p := range rep.problems {
		fmt.Printf("  GATE FAILED: %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct": len(rep.problems) == 0, "attempted": rep.attempted, "failed": rep.failed, "metrics": out,
	})
	must(err)
	fmt.Printf("%s\n", line)
	return len(rep.problems) == 0
}

// runAA measures the same code 2n times, alternating set A and set B, and
// holds the two sets' medians against the bounds in BENCHMARK.json.
func runAA(names []string, seed int64, seconds float64, n int) bool {
	var contract struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &contract)
	}
	if err != nil {
		fatal(fmt.Errorf("reading the bounds: %w", err))
	}
	sets := [2]map[string][]float64{{}, {}}
	ok := true
	for i := 0; i < 2*n; i++ {
		reports, err := measure(names, seed, seconds)
		if err != nil {
			fatal(err)
		}
		for _, rep := range reports {
			ok = ok && len(rep.problems) == 0
			for k, v := range rep.metrics {
				sets[i%2][rep.workload+" "+k] = append(sets[i%2][rep.workload+" "+k], v)
			}
		}
		fmt.Fprintf(os.Stderr, "bench: invocation %d of %d done\n", i+1, 2*n)
	}
	fmt.Printf("%-16s %-20s %16s %16s %9s %7s\n", "workload", "metric", "median A", "median B", "diff", "bound")
	for _, name := range names {
		for _, m := range contract.EndToEnd {
			a, b := median(sets[0][name+" "+m.Name]), median(sets[1][name+" "+m.Name])
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > m.Bound {
				verdict, ok = "  PAST BOUND", false
			}
			fmt.Printf("%-16s %-20s %16.6f %16.6f %8.3f%% %6.1f%%%s\n", name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok
}
