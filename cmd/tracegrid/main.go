// Command tracegrid reconstructs causal request trees from a cogrid
// trace and prints the deterministic critical-path attribution report —
// per request, which layer (broker queue wait, DUROC commit legs, GRAM
// submission, LRM startup) the end-to-end latency went to, and which
// subjob gated barrier release.
//
// It either reads a JSONL trace exported by `gridsim -trace-jsonl` or by
// its own -trace (-analyze FILE, "-" for stdin), or runs the built-in B1
// smoke scenario in-process (-smoke) and analyzes its trace directly.
// With -check it validates the causal-tracing invariants (≥99% request-id
// coverage, single-rooted request trees, critical-path durations summing
// exactly to end-to-end latency) and exits 2 on any violation — the mode
// `make trace-smoke` runs in CI. Any other failure exits 1.
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
	err := run(os.Stdout, os.Stdin, *analyze, *smoke, *seed, *check, *traceOut, *gaugesOut, *gaugeStep)
	if err != nil {
		if _, ok := err.(violations); ok {
			fmt.Fprintln(os.Stderr)
		}
		fmt.Fprintf(os.Stderr, "tracegrid: %v\n", err)
	}
	os.Exit(exitCode(err))
}

// violations is the error of a -check that found broken invariants, one
// message each.
type violations []string

func (v violations) Error() string {
	s := fmt.Sprintf("%d invariant violation(s):", len(v))
	for _, p := range v {
		s += "\n  - " + p
	}
	return s
}

// exitCode is the status run's error exits with: 0 for none, 2 for
// violations, 1 for anything else.
func exitCode(err error) int {
	switch err.(type) {
	case nil:
		return 0
	case violations:
		return 2
	}
	return 1
}

// run does what the flags ask, printing the report to stdout and reading
// an "-analyze -" trace from stdin.
func run(stdout io.Writer, stdin io.Reader, analyze string, smoke bool, seed int64, check bool, traceOut, gaugesOut string, gaugeStep time.Duration) error {
	if (analyze == "") == !smoke {
		return fmt.Errorf("exactly one of -analyze FILE or -smoke is required")
	}

	var events []trace.Event
	switch {
	case smoke:
		_, g := experiments.BrokerLoadRun(seed, true, 12, 2)
		events = g.Tracer.Events()
		if traceOut != "" {
			if err := writeTo(stdout, traceOut, g.Tracer.WriteJSONL); err != nil {
				return fmt.Errorf("write trace: %v", err)
			}
		}
		if gaugesOut != "" {
			series := g.Gauges.Series(gaugeStep, g.Sim.Now())
			if err := writeTo(stdout, gaugesOut, series.WriteCSV); err != nil {
				return fmt.Errorf("write gauges: %v", err)
			}
		}
	case analyze == "-":
		var err error
		if events, err = trace.ReadJSONL(stdin); err != nil {
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
	fmt.Fprint(stdout, a.Report())
	if check {
		if problems := a.Check(); len(problems) > 0 {
			return violations(problems)
		}
		fmt.Fprintln(stdout, "\ncheck: ok (coverage, tree shape, critical-path sums)")
	}
	return nil
}

// writeTo streams write(w) to a file path, with "-" meaning stdout.
func writeTo(stdout io.Writer, path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
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
