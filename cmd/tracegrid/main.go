// Command tracegrid reconstructs causal request trees from a cogrid
// trace and prints the deterministic critical-path attribution report —
// per request, which layer (broker queue wait, DUROC commit legs, GRAM
// submission, LRM startup) the end-to-end latency went to, and which
// subjob gated barrier release.
//
// It either reads a JSONL trace exported by `gridsim -trace-jsonl` /
// `benchgrid` (-analyze FILE, "-" for stdin), or runs the built-in B1
// smoke scenario in-process (-smoke) and analyzes its trace directly.
// With -check it validates the causal-tracing invariants (≥99% request-id
// coverage, single-rooted request trees, critical-path durations summing
// exactly to end-to-end latency) and exits non-zero on any violation —
// the mode `make trace-smoke` runs in CI.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cogrid/internal/experiments"
	"cogrid/internal/trace"
)

func main() {
	var (
		analyze   = flag.String("analyze", "", "read a JSONL trace from this file (\"-\" = stdin) and report on it")
		smoke     = flag.Bool("smoke", false, "run the built-in B1 smoke scenario in-process and analyze its trace")
		seed      = flag.Int64("seed", 1, "simulation seed for -smoke")
		check     = flag.Bool("check", false, "validate causal-tracing invariants; exit non-zero on any violation")
		traceOut  = flag.String("trace", "", "with -smoke: also write the JSONL trace to this file (\"-\" = stdout)")
		gaugesOut = flag.String("gauges", "", "with -smoke: write the gauge time-series CSV to this file (\"-\" = stdout)")
		gaugeStep = flag.Duration("gauge-step", 5*time.Second, "sampling cadence for -gauges")
	)
	flag.Parse()
	if err := run(*analyze, *smoke, *seed, *check, *traceOut, *gaugesOut, *gaugeStep); err != nil {
		fmt.Fprintf(os.Stderr, "tracegrid: %v\n", err)
		os.Exit(1)
	}
}

func run(analyze string, smoke bool, seed int64, check bool, traceOut, gaugesOut string, gaugeStep time.Duration) error {
	if (analyze == "") == !smoke {
		return fmt.Errorf("exactly one of -analyze FILE or -smoke is required")
	}

	var events []trace.Event
	switch {
	case smoke:
		_, g := experiments.BrokerLoadRun(experiments.BrokerSmokeConfig(seed), 12, 2)
		events = g.Tracer.Events()
		if traceOut != "" {
			if err := writeTo(traceOut, g.Tracer.WriteJSONL); err != nil {
				return fmt.Errorf("write trace: %v", err)
			}
		}
		if gaugesOut != "" {
			series := g.Gauges.Series(gaugeStep, g.Sim.Now())
			if err := writeTo(gaugesOut, series.WriteCSV); err != nil {
				return fmt.Errorf("write gauges: %v", err)
			}
		}
	case analyze == "-":
		var err error
		if events, err = trace.ReadJSONL(os.Stdin); err != nil {
			return fmt.Errorf("read stdin: %v", err)
		}
	default:
		f, err := os.Open(analyze)
		if err != nil {
			return err
		}
		events, err = trace.ReadJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("read %s: %v", analyze, err)
		}
	}

	a := trace.Analyze(events)
	fmt.Print(a.Report())
	if check {
		if problems := a.Check(); len(problems) > 0 {
			fmt.Fprintf(os.Stderr, "\ntracegrid: %d invariant violation(s):\n", len(problems))
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "  - %s\n", p)
			}
			os.Exit(2)
		}
		fmt.Println("\ncheck: ok (coverage, tree shape, critical-path sums)")
	}
	return nil
}

// writeTo streams write(w) to a file path, with "-" meaning stdout.
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
