// Benchgrid regenerates every table and figure from the paper's
// evaluation on the simulated grid and prints them as text.
//
// Usage:
//
//	benchgrid [-fig N|all|none] [-app NAME|all|none] [-seed N] [-trials N]
//	          [-json] [-smoke] [-metrics-out file]
//
// With no flags everything runs; -h lists the figure and study names.
// Timings are virtual (simulated) seconds; see EXPERIMENTS.md for the
// paper-versus-measured comparison. With -json the selected results are
// emitted as one JSON document (durations in nanoseconds): the
// repository's virtual-time record, which scripts/identical.sh compares
// across commits. -smoke shrinks the broker, chaos, federation, slo and
// scale studies to their seconds-long settings for CI gates. -metrics-out
// instead runs one small fixed broker-load row and writes its grid's
// Prometheus exposition. The causal critical-path report of a JSONL trace
// is `tracegrid -analyze`'s.
//
// Four studies carry an acceptance gate (chaos, federation, slo and
// scale; each result's Check method says what it enforces). In text mode
// a study whose gate fails is still printed and benchgrid exits 1; with
// -json it prints nothing and exits 2, as for any unusable command line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cogrid/internal/experiments"
	"cogrid/internal/metrics"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: "+names("fig"))
	app := flag.String("app", "all", "application study: "+names("app"))
	seed := flag.Int64("seed", 1, "random seed for stochastic studies")
	trials := flag.Int("trials", 5, "trials per setting in stochastic studies")
	jsonOut := flag.Bool("json", false, "emit one JSON document instead of text tables (durations in nanoseconds)")
	smoke := flag.Bool("smoke", false, "shrink the broker, chaos, federation, slo and scale studies to seconds-long settings")
	metricsPath := flag.String("metrics-out", "", "run one fixed broker-load row and write its full metric registry (counters, gauges, histograms) in Prometheus text format")
	flag.Parse()

	var err error
	switch {
	case *metricsPath != "":
		err = metricsOut(*metricsPath, *seed)
	case *jsonOut:
		err = emitJSON(os.Stdout, *fig, *app, *seed, *trials, *smoke)
	default:
		err = printText(*fig, *app, *seed, *trials, *smoke)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgrid:", err)
		os.Exit(2)
	}
}

// metricsOut runs experiments.ExpositionRun and writes the grid's
// Prometheus exposition ("-": to standard output). A write or close error
// is returned, so a truncated file never exits 0.
func metricsOut(path string, seed int64) error {
	row, g := experiments.ExpositionRun(seed)
	if path == "-" {
		if err := g.WriteMetrics(os.Stdout); err != nil {
			return err
		}
	} else {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := g.WriteMetrics(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "benchgrid: scenario seed %d: %d/%d completed, throughput %.2f/min\n",
		seed, row.Completed, row.Requests, row.ThroughputPerMin)
	return nil
}

// study is one row of the catalogue: one result, declared once. Flag
// validation, the text report and the -json document all derive from it.
type study struct {
	flag  string // "fig" or "app": the flag that selects it
	name  string // the flag value
	key   string // the result's key in the -json document
	title string // section heading; empty continues the section above
	run   func(seed int64, trials int, smoke bool) any
	note  string // printed under the result's text
}

// gate runs the acceptance gate of a study's result, if it has one: an
// error naming the study and its first violation, or nil.
func gate(s study, res any) error {
	if c, ok := res.(interface{ Check() []string }); ok {
		if bad := c.Check(); len(bad) > 0 {
			return fmt.Errorf("%s: %s", s.name, bad[0])
		}
	}
	return nil
}

var catalogue = []study{
	{flag: "fig", name: "2", key: "figure2",
		title: "Figure 2 — GRAM submission latency vs process count",
		run:   func(int64, int, bool) any { return experiments.Figure2([]int{1, 8, 16, 32, 64}) },
		note:  "(paper: latency is largely insensitive to the number of processes)"},
	{flag: "fig", name: "3", key: "figure3",
		title: "Figure 3 — breakdown of a single-process GRAM request",
		run:   func(int64, int, bool) any { return experiments.Figure3() },
		note:  "(paper: initgroups 0.7s, authentication 0.5s, misc 0.01s, fork 0.001s)"},
	{flag: "fig", name: "4", key: "figure4",
		title: "Figure 4 — DUROC submission time vs subjob count (64 processes)",
		run: func(int64, int, bool) any {
			return experiments.Figure4(64, []int{1, 2, 4, 8, 12, 16, 20, 25})
		}},
	{flag: "fig", name: "4", key: "figure4_flat",
		run: func(int64, int, bool) any { return experiments.Figure4Flat(4, []int{8, 16, 32, 64}) }},
	{flag: "fig", name: "5", key: "figure5_timeline",
		title: "Figure 5 — timeline of a DUROC submission (4 subjobs, 16 processes)",
		run:   func(int64, int, bool) any { return experiments.Figure5(4, 16) }},
	{flag: "app", name: "atomic", key: "a1_atomic_vs_interactive",
		title: "A1 — atomic (GRAB) restarts vs interactive (DUROC) transactions",
		run: func(seed int64, trials int, _ bool) any {
			return experiments.AtomicVsInteractive(5, 15*time.Minute, []float64{0, 0.1, 0.2, 0.3}, trials, seed)
		},
		note: "(paper: restarts of 15-minute startups made atomic transactions untenable)"},
	{flag: "app", name: "bigrun", key: "a2_bigrun",
		title: "A2 — 1386 processors, 13 machines, 9 sites, with failures",
		run:   func(seed int64, _ int, _ bool) any { return experiments.BigRun(seed) }},
	{flag: "app", name: "overprov", key: "s1_overprovision",
		title: "S1 — over-provisioning and forecast quality",
		run: func(seed int64, trials int, _ bool) any {
			return experiments.OverProvisionSweep(3, 9,
				[]float64{1, 1.33, 2, 3}, []float64{0, 1, 8}, trials, seed)
		},
		note: "(Section 2.2: forecasts and over-provisioning improve co-allocation)"},
	{flag: "app", name: "staleness", key: "s2_staleness",
		title: "S2 — co-allocation time vs load-information age",
		run: func(seed int64, trials int, _ bool) any {
			return experiments.StalenessSweep(3, 10,
				[]time.Duration{0, 15 * time.Minute, time.Hour, 2 * time.Hour}, trials, seed)
		},
		note: "([14]: load information helps only while it remains valid)"},
	{flag: "app", name: "reserve", key: "r1_coreservation",
		title: "R1 — co-reservation (Section 5 future work)",
		run:   func(seed int64, _ int, _ bool) any { return experiments.CoReservationStudy(seed) }},
	{flag: "app", name: "load", key: "r2_load_crossover",
		title: "R2 — best-effort co-allocation vs co-reservation under load",
		run: func(seed int64, trials int, _ bool) any {
			return experiments.BestEffortVsReservation(3, []float64{0.3, 0.5, 0.7, 0.85}, trials, seed)
		},
		note: "(Section 5: ensuring a co-allocation request succeeds ultimately\n" +
			" requires advance reservation; the crossover falls at moderate load)"},
	{flag: "app", name: "broker", key: "b1_broker_load",
		title: "B1 — broker throughput and latency vs offered load and queue bound",
		run:   func(seed int64, _ int, smoke bool) any { return experiments.BrokerLoadStudy(seed, smoke) },
		note: "(internal/broker: bounded admission pushes back when offered load\n" +
			" exceeds what the machines drain; rejects are admission rejections)"},
	{flag: "app", name: "chaos", key: "b2_chaos",
		title: "B2 — broker resilience under injected faults (chaos study)",
		run:   func(seed int64, _ int, smoke bool) any { return experiments.ChaosStudy(seed, smoke) },
		note: "(internal/failure through internal/broker: every fault heals in-run,\n" +
			" so the acceptance bar is zero leaked jobs and orphans rec == reaped)"},
	{flag: "app", name: "federation", key: "b6_federation",
		title: "B6 — federated broker scaling vs replica count (with a leader crash)",
		run:   func(seed int64, _ int, smoke bool) any { return experiments.FederationLoadStudy(seed, smoke) },
		note: "(internal/federation: replicas split the admission load; rows with\n" +
			" two or more replicas crash and restart the leader mid-run, so the\n" +
			" gains are earned under election, hand-off, and client failover)"},
	{flag: "app", name: "slo", key: "b7_slo",
		title: "B7 — SLO detection latency and flight-recorder coverage",
		run:   func(seed int64, _ int, smoke bool) any { return experiments.SLOStudy(seed, smoke) },
		note: "(internal/slo over internal/flightrec: fault-free rows must stay\n" +
			" silent; every faulted row must page within the detection budget,\n" +
			" and each fire freezes one validated black-box dump)"},
	{flag: "app", name: "scale", key: "b4_scale",
		title: "B4 — kernel throughput at scale",
		run:   func(seed int64, _ int, smoke bool) any { return experiments.ScaleStudy(seed, smoke) },
		note: "(internal/vtime + internal/lrm: the timing wheel, passive timers\n" +
			" and release index carry the whole job stream; every job must be\n" +
			" accounted for, none failed)"},
	{flag: "app", name: "ablation", key: "ab1_submission_ablation",
		title: "Ablation — sequential vs parallel subjob submission",
		run: func(int64, int, bool) any {
			return experiments.SubmissionAblation(64, []int{1, 5, 10, 25})
		},
		note: "(the paper's DUROC submitted sequentially — Figure 5 — leaving\n" +
			" pipelining as the only overlap; parallel submission is flat)"},
	{flag: "app", name: "ablation", key: "wide_area",
		run: func(int64, int, bool) any {
			return experiments.WideAreaStudy(8, 64, []time.Duration{
				time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond,
			})
		},
		note: "(Section 4.2: wide-area barrier costs are negligible next to startup delays)"},
}

// render is a result's text form: its table, and for the results that
// have none, or more than one part, what the report prints instead.
func render(res any) string {
	switch r := res.(type) {
	case experiments.Figure4Result:
		return fmt.Sprint(r.Table(), "\n", r.Summary())
	case []experiments.Figure4FlatRow:
		text := "Companion: DUROC time vs process count at 4 subjobs (paper: flat)\n"
		for _, row := range r {
			text += fmt.Sprintf("  %3d processes: %.3fs\n", row.Processes, row.Measured.Seconds())
		}
		return text
	case experiments.BigRunResult:
		text := fmt.Sprint(r.Table(), "\nfailures configured around:\n")
		for _, line := range r.Narrative {
			text += "  " + line + "\n"
		}
		return text
	case []experiments.AblationRow:
		return experiments.AblationTable(r).String()
	case []experiments.WideAreaRow:
		return experiments.WideAreaTable(r).String()
	case interface{ Table() *metrics.Table }:
		return r.Table().String()
	case interface{ Table() string }:
		return r.Table()
	}
	return fmt.Sprint(res) // Figure 5 is its own text
}

// names lists the values the given flag accepts, in catalogue order.
func names(flag string) string {
	var list []string
	for _, s := range catalogue {
		if s.flag == flag && s.title != "" {
			list = append(list, s.name)
		}
	}
	return strings.Join(list, ", ") + ", all, or none"
}

// selected returns the catalogue rows -fig and -app select between them,
// or an error naming the valid values of the flag that matched nothing.
func selected(fig, app string) ([]study, error) {
	var sel []study
	for _, f := range [2]struct{ flag, value string }{{"fig", fig}, {"app", app}} {
		n := len(sel)
		for _, s := range catalogue {
			if s.flag == f.flag && (f.value == "all" || f.value == s.name) {
				sel = append(sel, s)
			}
		}
		if len(sel) == n && f.value != "none" {
			return nil, fmt.Errorf("unknown -%s %q (valid: %s)", f.flag, f.value, names(f.flag))
		}
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("nothing selected (fig=%q, app=%q)", fig, app)
	}
	return sel, nil
}

// printText runs the selected studies, printing each as a titled section
// as soon as it finishes; a failed gate exits 1 once its study is printed.
func printText(fig, app string, seed int64, trials int, smoke bool) error {
	sel, err := selected(fig, app)
	if err != nil {
		return err
	}
	for _, s := range sel {
		fmt.Println()
		if s.title != "" {
			fmt.Println("==============================================================")
			fmt.Println(s.title)
			fmt.Println("==============================================================")
		}
		res := s.run(seed, trials, smoke)
		fmt.Print(render(res))
		if s.note != "" {
			fmt.Println(s.note)
		}
		if err := gate(s, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchgrid:", err)
			os.Exit(1)
		}
	}
	return nil
}

// emitJSON runs the selected studies and marshals their structured results
// as one JSON object keyed by result id. A failed gate emits nothing.
func emitJSON(w io.Writer, fig, app string, seed int64, trials int, smoke bool) error {
	sel, err := selected(fig, app)
	if err != nil {
		return err
	}
	out := make(map[string]any)
	for _, s := range sel {
		res := s.run(seed, trials, smoke)
		if err := gate(s, res); err != nil {
			return err
		}
		out[s.key] = res
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
