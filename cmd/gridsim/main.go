// Gridsim runs a co-allocation scenario from a JSON specification: it
// builds the described grid, applies the fault schedule, submits the RSL
// co-allocation request under the chosen strategy, and reports every
// event and the final outcome.
//
// Usage:
//
//	gridsim [-f scenario.json | scenario.json] [-demo] [-broker] [-chaos]
//	        [-federation] [-trace out.json] [-trace-jsonl out.jsonl]
//	        [-counters] [-gauges out.csv] [-gauge-step 5s]
//
// The scenario file may be given either with -f or as the positional
// argument. -trace writes a Chrome trace_event file of the whole run
// (open it in chrome://tracing or https://ui.perfetto.dev); -trace-jsonl
// writes the raw event stream as JSON Lines — the input format of the
// `tracegrid -analyze` causal critical-path analyzer; -counters prints
// the event-counter registry after the run; -gauges writes the
// virtual-time gauge series (queue depth, outstanding 2PC, busy
// processors, unreaped orphans) as CSV sampled every -gauge-step. -broker runs the
// built-in multi-tenant broker scenario instead of a co-allocation
// scenario file: three tenants (one flooding) submit through a bounded
// admission queue, showing backpressure and round-robin fairness. -chaos
// runs the built-in chaos scenario: the broker load replayed against a
// grid where machines crash, hang, and partition mid-run, showing the
// request deadline, the per-attempt watchdog, and the controller's orphan
// retries keeping the grid leak-free. -federation runs the built-in federated
// broker scenario: a three-replica control plane whose leader crashes
// mid-run, showing leader election, shard hand-off, journal adoption by
// the survivors, and client fail-over with idempotency keys.
//
// With -demo (or no flags) a built-in scenario runs: five machines, one
// crashing mid-startup and one slow, handled by substitution from a spare
// pool. The scenario file format:
//
//	{
//	  "seed": 1,
//	  "machines": [{"name": "m1", "processors": 64, "mode": "fork"}],
//	  "request": "+(&(resourceManagerContact=m1:gram)(count=8)(executable=app)(subjobStartType=required))",
//	  "strategy": "interactive",            // or "atomic"
//	  "pool": ["spare:gram"],               // substitution pool
//	  "drop_unreplaceable": true,
//	  "work_seconds": 60,                   // app run time after release
//	  "faults": [{"kind": "crash", "target": "m2", "at": 10000000000}]
//	}
//
// A fault is a workload.Fault, as in DST's replay form: "at" and "dur" are
// virtual nanoseconds, and a fault whose "dur" is 0 or absent never heals.
// Fault kinds: hang, slow (with "factor"), partition (with "target2", the
// workstation when absent), down, crash, revoke, broker-crash (refused: a
// scenario has no federation). A fault list that workload.CheckFaults
// refuses is an error.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cogrid/internal/agent"
	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/workload"
)

// Scenario is the JSON file format.
type Scenario struct {
	Seed              int64            `json:"seed"`
	Machines          []MachineSpec    `json:"machines"`
	Request           string           `json:"request"`
	Strategy          string           `json:"strategy"`
	Pool              []string         `json:"pool"`
	DropUnreplaceable bool             `json:"drop_unreplaceable"`
	WorkSeconds       int              `json:"work_seconds"`
	Faults            []workload.Fault `json:"faults"`
	TimeoutSeconds    int              `json:"timeout_seconds"`
	// Timeline renders the Figure 5-style submission timeline and the
	// co-allocation event history after the run.
	Timeline bool `json:"timeline"`
}

// MachineSpec describes one machine.
type MachineSpec struct {
	Name       string `json:"name"`
	Processors int    `json:"processors"`
	Mode       string `json:"mode"`
}

func main() {
	file := flag.String("f", "", "scenario file (JSON)")
	demo := flag.Bool("demo", false, "run the built-in demo scenario")
	brokerDemo := flag.Bool("broker", false, "run the built-in multi-tenant broker scenario")
	chaosDemo := flag.Bool("chaos", false, "run the built-in broker chaos scenario (faults injected mid-run)")
	federationDemo := flag.Bool("federation", false, "run the built-in federated broker scenario (leader crash, election, fail-over)")
	timeline := flag.Bool("timeline", false, "render the submission timeline and event history")
	tracePath := flag.String("trace", "", "write a Chrome trace_event file of the run")
	jsonlPath := flag.String("trace-jsonl", "", "write the raw trace events as JSON Lines (input for tracegrid -analyze)")
	counters := flag.Bool("counters", false, "print the event-counter registry after the run")
	gaugesPath := flag.String("gauges", "", "write the virtual-time gauge series (queue depth, outstanding 2PC, busy processors, orphans) as CSV")
	gaugeStep := flag.Duration("gauge-step", 5*time.Second, "sampling cadence for -gauges")
	metricsPath := flag.String("metrics-out", "", "write counters, gauges, and latency histograms in Prometheus text format after the run")
	flag.Parse()

	scenarioPath := *file
	if scenarioPath == "" && flag.NArg() > 0 {
		scenarioPath = flag.Arg(0)
	}
	var opts runOptions
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts.TraceW = f
	}
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts.JSONLW = f
	}
	if *counters {
		opts.CountersW = os.Stdout
	}
	if *gaugesPath != "" {
		f, err := os.Create(*gaugesPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts.GaugesW = f
		opts.GaugeStep = *gaugeStep
	}
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		opts.MetricsW = f
	}

	if *brokerDemo {
		if err := runBrokerDemo(opts); err != nil {
			fatal(err)
		}
		return
	}
	if *chaosDemo {
		if err := runChaosDemo(opts); err != nil {
			fatal(err)
		}
		return
	}
	if *federationDemo {
		if err := runFederationDemo(opts); err != nil {
			fatal(err)
		}
		return
	}

	var sc Scenario
	switch {
	case scenarioPath != "":
		raw, err := os.ReadFile(scenarioPath)
		if err != nil {
			fatal(err)
		}
		if sc, err = parseScenario(raw); err != nil {
			fatal(fmt.Errorf("%s: %v", scenarioPath, err))
		}
	default:
		_ = demo
		sc = demoScenario()
		fmt.Println("gridsim: running the built-in demo scenario (see -f for custom ones)")
	}
	sc.Timeline = sc.Timeline || *timeline

	if err := runWith(sc, opts); err != nil {
		fatal(err)
	}
}

// parseScenario decodes the scenario file format. A field the format does
// not have is an error, not a default: a fault in the old spelling
// ("at_seconds") would otherwise strike at 0.
func parseScenario(raw []byte) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	err := dec.Decode(&sc)
	return sc, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gridsim:", err)
	os.Exit(1)
}

func demoScenario() Scenario {
	return Scenario{
		Seed: 7,
		Machines: []MachineSpec{
			{Name: "anl-sp2", Processors: 128, Mode: "fork"},
			{Name: "caltech-hp", Processors: 256, Mode: "fork"},
			{Name: "ncsa-o2k", Processors: 128, Mode: "fork"},
			{Name: "sdsc-sp2", Processors: 128, Mode: "fork"},
			{Name: "spare-a", Processors: 256, Mode: "fork"},
		},
		Request: `+(&(resourceManagerContact=anl-sp2:gram)(count=64)(executable=app)(subjobStartType=required)(label=coordinator))
  (&(resourceManagerContact=caltech-hp:gram)(count=128)(executable=app)(subjobStartType=interactive)(label=caltech))
  (&(resourceManagerContact=ncsa-o2k:gram)(count=64)(executable=app)(subjobStartType=interactive)(label=ncsa))
  (&(resourceManagerContact=sdsc-sp2:gram)(count=64)(executable=app)(subjobStartType=interactive)(label=sdsc))`,
		Strategy:          "interactive",
		Pool:              []string{"spare-a:gram"},
		DropUnreplaceable: true,
		WorkSeconds:       30,
		Faults: []workload.Fault{
			{Kind: "slow", Target: "sdsc-sp2", Factor: 100},
			{Kind: "crash", Target: "ncsa-o2k", At: 3 * time.Second},
		},
	}
}

// runOptions selects observability outputs for one run.
type runOptions struct {
	// TraceW, when set, receives a Chrome trace_event JSON file of the run.
	TraceW io.Writer
	// JSONLW, when set, receives the raw event stream as JSON Lines — the
	// format tracegrid -analyze consumes.
	JSONLW io.Writer
	// CountersW, when set, receives the counter-registry table after the run.
	CountersW io.Writer
	// GaugesW, when set, receives the virtual-time gauge series as CSV,
	// sampled every GaugeStep.
	GaugesW   io.Writer
	GaugeStep time.Duration
	// MetricsW, when set, receives the full metric registry — counters,
	// gauges, and latency histograms — in Prometheus text format.
	MetricsW io.Writer
}

// writeOutputs emits the selected observability outputs of a finished run.
// It is shared by the scenario runner and the built-in demos, and runs
// even when the scenario failed — a trace of a failed co-allocation is
// exactly what one wants to read.
func writeOutputs(g *grid.Grid, opts runOptions) error {
	if opts.TraceW != nil {
		if err := g.Tracer.WriteChromeTrace(opts.TraceW); err != nil {
			return fmt.Errorf("write trace: %v", err)
		}
	}
	if opts.JSONLW != nil {
		if err := g.Tracer.WriteJSONL(opts.JSONLW); err != nil {
			return fmt.Errorf("write jsonl trace: %v", err)
		}
	}
	if opts.CountersW != nil {
		fmt.Fprintln(opts.CountersW, "\ncounters:")
		fmt.Fprint(opts.CountersW, g.Counters.String())
	}
	if opts.GaugesW != nil {
		step := opts.GaugeStep
		if step <= 0 {
			step = 5 * time.Second
		}
		if err := g.Gauges.Series(step, g.Sim.Now()).WriteCSV(opts.GaugesW); err != nil {
			return fmt.Errorf("write gauges: %v", err)
		}
	}
	if opts.MetricsW != nil {
		if err := g.WriteMetrics(opts.MetricsW); err != nil {
			return fmt.Errorf("write metrics: %v", err)
		}
	}
	return nil
}

func run(sc Scenario) error { return runWith(sc, runOptions{}) }

func runWith(sc Scenario, opts runOptions) error {
	g := grid.New(grid.Options{
		Seed: sc.Seed,
		// The timeline is a projection of the trace.
		Trace: sc.Timeline || opts.TraceW != nil || opts.JSONLW != nil || opts.CountersW != nil || opts.GaugesW != nil || opts.MetricsW != nil,
	})
	for _, m := range sc.Machines {
		mode := lrm.Fork
		if m.Mode == "batch" {
			mode = lrm.Batch
		}
		g.AddMachine(m.Name, m.Processors, mode)
	}
	g.RegisterEverywhere("app", workload.App(time.Duration(sc.WorkSeconds)*time.Second, 0))

	tb := &workload.Testbed{Grid: g}
	if _, err := tb.Schedule(sc.Faults); err != nil {
		return err
	}
	for _, f := range sc.Faults {
		b, err := json.Marshal(f)
		if err != nil {
			return err
		}
		fmt.Println("fault scheduled:", string(b))
	}

	req, err := core.ParseRequest(sc.Request)
	if err != nil {
		return fmt.Errorf("request: %v", err)
	}
	for i := range req.Subjobs {
		if req.Subjobs[i].StartupTimeout == 0 {
			req.Subjobs[i].StartupTimeout = 2 * time.Minute
		}
	}
	ctrlCfg := core.ControllerConfig{
		Credential:    g.UserCred,
		Registry:      g.Registry,
		CancelTimeout: 30 * time.Second,
	}
	ctrl, err := core.NewController(g.Workstation, ctrlCfg)
	if err != nil {
		return err
	}
	var pool []transport.Addr
	for _, p := range sc.Pool {
		addr, err := transport.ParseAddr(p)
		if err != nil {
			return err
		}
		pool = append(pool, addr)
	}
	timeout := time.Duration(sc.TimeoutSeconds) * time.Second

	var runErr error
	simErr := g.Sim.Run("agent", func() {
		// Event reporter: everything the co-allocator tells the agent.
		var res agent.Result
		var err error
		switch sc.Strategy {
		case "atomic":
			res, err = agent.Atomic(ctrl, req, timeout)
		case "", "interactive":
			res, err = agent.WithSubstitution(ctrl, req, agent.SubstituteOptions{
				Pool:              pool,
				CommitTimeout:     timeout,
				DropUnreplaceable: sc.DropUnreplaceable,
			})
		default:
			runErr = fmt.Errorf("unknown strategy %q", sc.Strategy)
			return
		}
		if err != nil {
			runErr = fmt.Errorf("co-allocation failed at t=%v: %v", g.Sim.Now(), err)
			// The abort's cancels are still on their way to the machines;
			// give each its full timeout before the run ends.
			g.Sim.Sleep(ctrlCfg.CancelTimeout)
			return
		}
		fmt.Printf("\ncommitted at t=%v: %d subjobs, %d processes",
			g.Sim.Now(), res.Config.NSubjobs, res.Config.WorldSize)
		if res.Substitutions > 0 || res.Deleted > 0 {
			fmt.Printf(" (%d substituted, %d dropped)", res.Substitutions, res.Deleted)
		}
		fmt.Println()
		for _, info := range res.Job.Status() {
			fmt.Printf("  subjob %-14s %-10s %s\n", info.Spec.Label, info.Status, info.Reason)
		}
		res.Job.Done().Wait()
		fmt.Printf("computation finished at t=%v", g.Sim.Now())
		if msg := res.Job.Err(); msg != "" {
			fmt.Printf(" (%s)", msg)
		}
		fmt.Println()
		if sc.Timeline {
			fmt.Println("\nevent history:")
			for _, ev := range res.Job.History() {
				fmt.Println("  " + ev.String())
			}
			fmt.Println("\nsubmission timeline:")
			fmt.Print(trace.DeriveTimeline(g.Tracer.Events(), trace.IsPhase).Render(96))
		}
	})
	if err := writeOutputs(g, opts); err != nil {
		return err
	}
	if simErr != nil {
		return simErr
	}
	return errors.Join(runErr, audit(tb, ctrl))
}

// audit ends every run but a deadlocked one: nil, or an error naming the
// first violation workload.Testbed.Audit finds in the quiesced grid.
func audit(tb *workload.Testbed, ctrls ...*core.Controller) error {
	if bad := workload.Gate("audit", tb.Audit(nil, ctrls...)); len(bad) > 0 {
		return fmt.Errorf("%s (%d violation(s) in all)", bad[0], len(bad))
	}
	return nil
}
