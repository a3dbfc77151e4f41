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
// request deadline, the per-attempt watchdog, and the orphan reaper
// keeping the grid leak-free. -federation runs the built-in federated
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
//	  "faults": [{"at_seconds": 10, "kind": "host-crash", "target": "m2"}]
//	}
//
// Fault kinds: host-crash, host-hang, host-restore, machine-slow (with
// "factor"), machine-down, machine-up, partition/heal (with "target2"),
// revoke-user, reinstate-user, machine-restart.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cogrid/internal/agent"
	"cogrid/internal/core"
	"cogrid/internal/failure"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/workload"
)

// Scenario is the JSON file format.
type Scenario struct {
	Seed              int64         `json:"seed"`
	Machines          []MachineSpec `json:"machines"`
	Request           string        `json:"request"`
	Strategy          string        `json:"strategy"`
	Pool              []string      `json:"pool"`
	DropUnreplaceable bool          `json:"drop_unreplaceable"`
	WorkSeconds       int           `json:"work_seconds"`
	Faults            []FaultSpec   `json:"faults"`
	TimeoutSeconds    int           `json:"timeout_seconds"`
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

// FaultSpec describes one scheduled fault.
type FaultSpec struct {
	AtSeconds float64 `json:"at_seconds"`
	Kind      string  `json:"kind"`
	Target    string  `json:"target"`
	Target2   string  `json:"target2"`
	Factor    float64 `json:"factor"`
}

var faultKinds = map[string]failure.Kind{
	"host-crash":      failure.HostCrash,
	"host-hang":       failure.HostHang,
	"host-restore":    failure.HostRestore,
	"machine-slow":    failure.MachineSlow,
	"machine-down":    failure.MachineDown,
	"machine-up":      failure.MachineUp,
	"partition":       failure.Partition,
	"heal":            failure.Heal,
	"revoke-user":     failure.RevokeUser,
	"reinstate-user":  failure.ReinstateUser,
	"machine-restart": failure.MachineRestart,
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
		if err := json.Unmarshal(raw, &sc); err != nil {
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
		Faults: []FaultSpec{
			{AtSeconds: 3, Kind: "host-crash", Target: "ncsa-o2k"},
			{AtSeconds: 0, Kind: "machine-slow", Target: "sdsc-sp2", Factor: 100},
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

	var plan failure.Plan
	for _, f := range sc.Faults {
		kind, ok := faultKinds[f.Kind]
		if !ok {
			return fmt.Errorf("unknown fault kind %q", f.Kind)
		}
		plan = append(plan, failure.Action{
			At:      time.Duration(f.AtSeconds * float64(time.Second)),
			Kind:    kind,
			Target:  f.Target,
			Target2: f.Target2,
			Factor:  f.Factor,
		})
	}
	plan.Apply(g)
	for _, a := range plan.Sorted() {
		fmt.Println("fault scheduled:", a)
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
		Credential: g.UserCred,
		Registry:   g.Registry,
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
			fmt.Print(trace.DeriveTimeline(g.Sim, g.Tracer.Events(), trace.IsPhase).Render(96))
		}
	})
	if err := writeOutputs(g, opts); err != nil {
		return err
	}
	if simErr != nil {
		return simErr
	}
	return runErr
}
