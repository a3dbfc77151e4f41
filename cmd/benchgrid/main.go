// Benchgrid regenerates every table and figure from the paper's
// evaluation on the simulated grid and prints them as text.
//
// Usage:
//
//	benchgrid [-fig 2|3|4|5|all]
//	          [-app atomic|bigrun|overprov|staleness|reserve|load|broker|chaos|federation|wire|slo|scale|ablation|all]
//	          [-seed N] [-trials N] [-json] [-smoke] [-analyze trace.jsonl]
//
// With no flags everything runs. Timings are virtual (simulated) seconds;
// see EXPERIMENTS.md for the paper-versus-measured comparison. With -json
// the selected results are emitted as one JSON document (durations in
// nanoseconds) for plotting pipelines. -smoke shrinks the broker load and
// chaos studies to seconds-long configurations for CI gates. -analyze
// reads a JSONL trace (exported by `gridsim -trace-jsonl`), rebuilds the
// per-request causal trees, and prints the critical-path attribution
// report instead of running any experiment — the same analysis
// `cmd/tracegrid` performs.
//
// The chaos study doubles as a leak check: benchgrid exits non-zero if
// any row leaves a non-terminal job on a machine after quiescence or
// records an orphan that was never reaped. The wire study (B3) likewise
// enforces its acceptance bar: the binary codec must beat JSON on both
// messages/sec and allocs/op, with zero drops in the deterministic rows.
// The scale study (B4) smoke configuration runs the same job stream on
// the reference heap and the production timing wheel and exits non-zero
// if any deterministic virtual-time column differs between the engines,
// or if any job fails or goes missing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cogrid/internal/experiments"
	"cogrid/internal/perf"
	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2, 3, 4, 5, or all")
	app := flag.String("app", "all", "application study: atomic, bigrun, overprov, staleness, reserve, load, broker, chaos, federation, wire, slo, scale, ablation, all, or none")
	seed := flag.Int64("seed", 1, "random seed for stochastic studies")
	trials := flag.Int("trials", 5, "trials per setting in stochastic studies")
	jsonOut := flag.Bool("json", false, "emit one JSON document instead of text tables (durations in nanoseconds)")
	smoke := flag.Bool("smoke", false, "shrink the broker study to a tiny smoke-test configuration")
	analyze := flag.String("analyze", "", "read a JSONL trace and print the causal critical-path report instead of running experiments")
	metricsPath := flag.String("metrics-out", "", "run the deterministic perf scenario and write its full metric registry (counters, gauges, histograms) in Prometheus text format")
	flag.Parse()

	if *metricsPath != "" {
		if err := metricsOut(*metricsPath, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "benchgrid:", err)
			os.Exit(2)
		}
		return
	}

	if *analyze != "" {
		if err := analyzeTrace(*analyze); err != nil {
			fmt.Fprintln(os.Stderr, "benchgrid:", err)
			os.Exit(2)
		}
		return
	}

	if *jsonOut {
		if err := emitJSON(os.Stdout, *fig, *app, *seed, *trials, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, "benchgrid:", err)
			os.Exit(2)
		}
		return
	}

	ran := false
	switch *fig {
	case "2":
		figure2()
	case "3":
		figure3()
	case "4":
		figure4()
	case "5":
		figure5()
	case "all":
		figure2()
		figure3()
		figure4()
		figure5()
	case "none":
	default:
		fmt.Fprintf(os.Stderr, "benchgrid: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	ran = *fig != "none"

	switch *app {
	case "atomic":
		atomicStudy(*seed, *trials)
	case "bigrun":
		bigRun(*seed)
	case "overprov":
		overProvision(*seed, *trials)
	case "staleness":
		staleness(*seed, *trials)
	case "reserve":
		reserve(*seed)
	case "load":
		loadStudy(*seed, *trials)
	case "broker":
		brokerStudy(*seed, *smoke)
	case "chaos":
		chaosStudy(*seed, *smoke)
	case "federation":
		federationStudy(*seed, *smoke)
	case "wire":
		wireStudy(*seed, *smoke)
	case "slo":
		sloStudy(*seed, *smoke)
	case "scale":
		scaleStudy(*seed, *smoke)
	case "ablation":
		ablation()
	case "all":
		atomicStudy(*seed, *trials)
		bigRun(*seed)
		overProvision(*seed, *trials)
		staleness(*seed, *trials)
		reserve(*seed)
		loadStudy(*seed, *trials)
		brokerStudy(*seed, *smoke)
		chaosStudy(*seed, *smoke)
		federationStudy(*seed, *smoke)
		wireStudy(*seed, *smoke)
		sloStudy(*seed, *smoke)
		scaleStudy(*seed, *smoke)
		ablation()
	case "none":
	default:
		fmt.Fprintf(os.Stderr, "benchgrid: unknown study %q\n", *app)
		os.Exit(2)
	}
	if !ran && *app == "none" {
		fmt.Fprintln(os.Stderr, "benchgrid: nothing to do")
		os.Exit(2)
	}
}

// metricsOut runs the perf package's deterministic broker-load scenario
// and writes the resulting grid's Prometheus exposition — the same series
// cmd/perfgrid snapshots into BENCH_grid.json. "-" writes to stdout.
func metricsOut(path string, seed int64) error {
	_, g, row := perf.RunScenario(seed)
	w := io.Writer(os.Stdout)
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := g.WriteMetrics(w); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchgrid: scenario seed %d: %d/%d completed, throughput %.2f/min\n",
		seed, row.Completed, row.Requests, row.ThroughputPerMin)
	return nil
}

// emitJSON runs the selected experiments and marshals their structured
// results as one JSON object keyed by experiment id.
func emitJSON(w io.Writer, fig, app string, seed int64, trials int, smoke bool) error {
	out := make(map[string]any)
	figOn := func(want string) bool { return fig == "all" || fig == want }
	appOn := func(want string) bool { return app == "all" || app == want }
	if figOn("2") {
		out["figure2"] = experiments.Figure2([]int{1, 8, 16, 32, 64})
	}
	if figOn("3") {
		out["figure3"] = experiments.Figure3()
	}
	if figOn("4") {
		out["figure4"] = experiments.Figure4(64, []int{1, 2, 4, 8, 12, 16, 20, 25})
		out["figure4_flat"] = experiments.Figure4Flat(4, []int{8, 16, 32, 64})
	}
	if figOn("5") {
		out["figure5_timeline"] = experiments.Figure5(4, 16)
	}
	if appOn("atomic") {
		out["a1_atomic_vs_interactive"] = experiments.AtomicVsInteractive(
			5, 15*time.Minute, []float64{0, 0.1, 0.2, 0.3}, trials, seed)
	}
	if appOn("bigrun") {
		out["a2_bigrun"] = experiments.BigRun(seed)
	}
	if appOn("overprov") {
		out["s1_overprovision"] = experiments.OverProvisionSweep(3, 9,
			[]float64{1, 1.33, 2, 3}, []float64{0, 1, 8}, trials, seed)
	}
	if appOn("staleness") {
		out["s2_staleness"] = experiments.StalenessSweep(3, 10,
			[]time.Duration{0, 15 * time.Minute, time.Hour, 2 * time.Hour}, trials, seed)
	}
	if appOn("reserve") {
		out["r1_coreservation"] = experiments.CoReservationStudy(seed)
	}
	if appOn("load") {
		out["r2_load_crossover"] = experiments.BestEffortVsReservation(3,
			[]float64{0.3, 0.5, 0.7, 0.85}, trials, seed)
	}
	if appOn("broker") {
		out["b1_broker_load"] = experiments.BrokerLoadStudy(brokerConfig(seed, smoke))
	}
	if appOn("chaos") {
		res := experiments.ChaosStudy(chaosConfig(seed, smoke))
		if err := chaosLeakCheck(res); err != nil {
			return err
		}
		out["b2_chaos"] = res
	}
	if appOn("federation") {
		res := experiments.FederationLoadStudy(federationConfig(seed, smoke))
		if err := federationScalingCheck(res); err != nil {
			return err
		}
		out["b6_federation"] = res
	}
	if appOn("wire") {
		res := experiments.WireStudy(wireConfig(seed, smoke))
		if err := wireCheck(res); err != nil {
			return err
		}
		out["b3_wire"] = res
	}
	if appOn("slo") {
		res := experiments.SLOStudy(sloConfig(seed, smoke))
		if err := sloCheck(res); err != nil {
			return err
		}
		out["b7_slo"] = res
	}
	if appOn("scale") {
		res := experiments.ScaleStudy(scaleConfig(seed, smoke))
		if err := scaleCheck(res); err != nil {
			return err
		}
		out["b4_scale"] = res
	}
	if appOn("ablation") {
		out["ab1_submission_ablation"] = experiments.SubmissionAblation(64, []int{1, 5, 10, 25})
		out["wide_area"] = experiments.WideAreaStudy(8, 64, []time.Duration{
			time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond,
		})
	}
	if len(out) == 0 {
		return fmt.Errorf("nothing selected (fig=%q, app=%q)", fig, app)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// analyzeTrace rebuilds causal request trees from a JSONL trace and prints
// the deterministic critical-path attribution report.
func analyzeTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	events, err := trace.ReadJSONL(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("read %s: %v", path, err)
	}
	fmt.Print(trace.Analyze(events).Report())
	return nil
}

func section(title string) {
	fmt.Println()
	fmt.Println("==============================================================")
	fmt.Println(title)
	fmt.Println("==============================================================")
}

func figure2() {
	section("Figure 2 — GRAM submission latency vs process count")
	res := experiments.Figure2([]int{1, 8, 16, 32, 64})
	fmt.Print(res.Table())
	fmt.Println("(paper: latency is largely insensitive to the number of processes)")
}

func figure3() {
	section("Figure 3 — breakdown of a single-process GRAM request")
	res := experiments.Figure3()
	fmt.Print(res.Table())
	fmt.Println("(paper: initgroups 0.7s, authentication 0.5s, misc 0.01s, fork 0.001s)")
}

func figure4() {
	section("Figure 4 — DUROC submission time vs subjob count (64 processes)")
	res := experiments.Figure4(64, []int{1, 2, 4, 8, 12, 16, 20, 25})
	fmt.Print(res.Table())
	fmt.Println()
	fmt.Print(res.Summary())
	fmt.Println()
	fmt.Println("Companion: DUROC time vs process count at 4 subjobs (paper: flat)")
	for _, row := range experiments.Figure4Flat(4, []int{8, 16, 32, 64}) {
		fmt.Printf("  %3d processes: %.3fs\n", row.Processes, row.Measured.Seconds())
	}
}

func figure5() {
	section("Figure 5 — timeline of a DUROC submission (4 subjobs, 16 processes)")
	fmt.Print(experiments.Figure5(4, 16))
}

func atomicStudy(seed int64, trials int) {
	section("A1 — atomic (GRAB) restarts vs interactive (DUROC) transactions")
	res := experiments.AtomicVsInteractive(5, 15*time.Minute, []float64{0, 0.1, 0.2, 0.3}, trials, seed)
	fmt.Print(res.Table())
	fmt.Println("(paper: restarts of 15-minute startups made atomic transactions untenable)")
}

func bigRun(seed int64) {
	section("A2 — 1386 processors, 13 machines, 9 sites, with failures")
	res := experiments.BigRun(seed)
	fmt.Print(res.Table())
	fmt.Println("\nfailures configured around:")
	for _, line := range res.Narrative {
		fmt.Println("  " + line)
	}
}

func overProvision(seed int64, trials int) {
	section("S1 — over-provisioning and forecast quality")
	res := experiments.OverProvisionSweep(3, 9,
		[]float64{1, 1.33, 2, 3}, []float64{0, 1, 8}, trials, seed)
	fmt.Print(res.Table())
	fmt.Println("(Section 2.2: forecasts and over-provisioning improve co-allocation)")
}

func staleness(seed int64, trials int) {
	section("S2 — co-allocation time vs load-information age")
	res := experiments.StalenessSweep(3, 10,
		[]time.Duration{0, 15 * time.Minute, time.Hour, 2 * time.Hour}, trials, seed)
	fmt.Print(res.Table())
	fmt.Println("([14]: load information helps only while it remains valid)")
}

func reserve(seed int64) {
	section("R1 — co-reservation (Section 5 future work)")
	res := experiments.CoReservationStudy(seed)
	fmt.Print(res.Table())
}

func loadStudy(seed int64, trials int) {
	section("R2 — best-effort co-allocation vs co-reservation under load")
	res := experiments.BestEffortVsReservation(3, []float64{0.3, 0.5, 0.7, 0.85}, trials, seed)
	fmt.Print(res.Table())
	fmt.Println("(Section 5: ensuring a co-allocation request succeeds ultimately")
	fmt.Println(" requires advance reservation; the crossover falls at moderate load)")
}

// brokerConfig selects the broker study size: the stock configuration, or
// a seconds-long smoke setting for CI (make bench-smoke).
func brokerConfig(seed int64, smoke bool) experiments.BrokerLoadConfig {
	if !smoke {
		return experiments.BrokerLoadConfig{Seed: seed}
	}
	return experiments.BrokerLoadConfig{
		Machines:      3,
		MachineSize:   16,
		Sites:         2,
		ProcsPerSite:  4,
		Workers:       2,
		WorkTime:      time.Minute,
		Requests:      8,
		Tenants:       2,
		RatesPerMin:   []float64{4, 12},
		QueueBounds:   []int{2},
		ClosedClients: []int{2},
		Seed:          seed,
	}
}

func brokerStudy(seed int64, smoke bool) {
	section("B1 — broker throughput and latency vs offered load and queue bound")
	res := experiments.BrokerLoadStudy(brokerConfig(seed, smoke))
	fmt.Print(res.Table())
	fmt.Println("(internal/broker: bounded admission pushes back when offered load")
	fmt.Println(" exceeds what the machines drain; rejects are admission rejections)")
}

// chaosConfig selects the chaos study size: the stock configuration, or a
// seconds-long smoke setting for CI (make chaos-smoke). The smoke run
// shifts the default seed to 3, where the high-fault row exercises the
// full orphan pipeline — a host crash strands committed subjobs, a
// machine restart brings the gatekeeper back, and the reaper drains them.
func chaosConfig(seed int64, smoke bool) experiments.ChaosConfig {
	if !smoke {
		return experiments.ChaosConfig{Seed: seed}
	}
	if seed == 1 {
		seed = 3
	}
	return experiments.ChaosConfig{
		Machines:     4,
		MachineSize:  16,
		Sites:        2,
		ProcsPerSite: 4,
		Spares:       1,
		Workers:      2,
		WorkTime:     45 * time.Second,
		Requests:     6,
		Tenants:      2,
		RatePerMin:   4,
		FaultRates:   []float64{0, 0.75},
		Window:       2 * time.Minute,
		MaxTime:      4 * time.Minute,
		SubmitBudget: 6 * time.Minute,
		Seed:         seed,
	}
}

// chaosLeakCheck enforces the chaos study's resilience criterion: no row
// may leave live jobs on any machine after quiescence, and every orphan
// recorded mid-2PC must have been reaped at its resource manager.
func chaosLeakCheck(res experiments.ChaosResult) error {
	for _, row := range res.Rows {
		if row.LeakedJobs != 0 {
			return fmt.Errorf("chaos: fault rate %.2f leaked %d jobs after quiescence",
				row.FaultRate, row.LeakedJobs)
		}
		if row.OrphansRecorded != row.OrphansReaped {
			return fmt.Errorf("chaos: fault rate %.2f recorded %d orphans but reaped %d",
				row.FaultRate, row.OrphansRecorded, row.OrphansReaped)
		}
	}
	return nil
}

func chaosStudy(seed int64, smoke bool) {
	section("B2 — broker resilience under injected faults (chaos study)")
	res := experiments.ChaosStudy(chaosConfig(seed, smoke))
	fmt.Print(res.Table())
	fmt.Println("(internal/failure through internal/broker: every fault heals in-run,")
	fmt.Println(" so the acceptance bar is zero leaked jobs and orphans rec == reaped)")
	if err := chaosLeakCheck(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchgrid:", err)
		os.Exit(1)
	}
}

// federationConfig selects the federation study size: the stock
// 1/2/4/8-replica sweep, or just the 1-vs-2 rows for CI (make fed-smoke).
func federationConfig(seed int64, smoke bool) experiments.FederationLoadConfig {
	cfg := experiments.FederationLoadConfig{Seed: seed}
	if smoke {
		cfg.ReplicaCounts = []int{1, 2}
	}
	return cfg
}

// federationScalingCheck enforces the study's acceptance bar: at least one
// multi-replica row must sustain higher admitted throughput than the
// single-replica row at no worse p99 — even though the multi-replica rows
// also absorb a leader crash mid-run.
func federationScalingCheck(res experiments.FederationLoadResult) error {
	var base *experiments.FederationLoadRow
	for i := range res.Rows {
		if res.Rows[i].Replicas == 1 {
			base = &res.Rows[i]
		}
	}
	if base == nil {
		return nil // no single-replica baseline in this sweep
	}
	for _, row := range res.Rows {
		if row.Replicas > 1 && row.ThroughputPerMin > base.ThroughputPerMin && row.P99 <= base.P99 {
			return nil
		}
	}
	return fmt.Errorf("federation: no multi-replica row beat the single-replica baseline (%.2f/min, p99 %v)",
		base.ThroughputPerMin, base.P99)
}

func federationStudy(seed int64, smoke bool) {
	section("B6 — federated broker scaling vs replica count (with a leader crash)")
	res := experiments.FederationLoadStudy(federationConfig(seed, smoke))
	fmt.Print(res.Table())
	fmt.Println("(internal/federation: replicas split the admission load; rows with")
	fmt.Println(" two or more replicas crash and restart the leader mid-run, so the")
	fmt.Println(" gains are earned under election, hand-off, and client failover)")
	if err := federationScalingCheck(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchgrid:", err)
		os.Exit(1)
	}
}

// wireConfig selects the wire study size: the stock configuration, or a
// seconds-long smoke setting for CI (make wire-smoke).
func wireConfig(seed int64, smoke bool) experiments.WireConfig {
	cfg := experiments.WireConfig{Seed: seed}
	if smoke {
		cfg.Messages = 2000
		cfg.BenchTime = "30ms"
	}
	return cfg
}

// wireCheck enforces the B3 acceptance bar: the binary codec's unbatched
// row must beat JSON's on both messages/sec and allocs/op, and no study
// row may drop a message — the flow-controlled stream fits the queue, so
// any drop means the wire lost something it accounted as sent.
func wireCheck(res experiments.WireResult) error {
	var jsonRow, binRow *experiments.WireRow
	for i := range res.Rows {
		row := &res.Rows[i]
		if row.Dropped != 0 {
			return fmt.Errorf("wire: codec %s (batched=%t) dropped %d messages",
				row.Codec, row.Batched, row.Dropped)
		}
		if !row.Batched {
			switch row.Codec {
			case "json":
				jsonRow = row
			case "binary":
				binRow = row
			}
		}
	}
	if jsonRow == nil || binRow == nil {
		return fmt.Errorf("wire: study missing the unbatched json/binary rows")
	}
	if binRow.MsgsPerSec <= jsonRow.MsgsPerSec {
		return fmt.Errorf("wire: binary %.0f msgs/sec does not beat JSON %.0f",
			binRow.MsgsPerSec, jsonRow.MsgsPerSec)
	}
	if binRow.AllocsPerOp >= jsonRow.AllocsPerOp {
		return fmt.Errorf("wire: binary %.1f allocs/op not below JSON %.1f",
			binRow.AllocsPerOp, jsonRow.AllocsPerOp)
	}
	return nil
}

func wireStudy(seed int64, smoke bool) {
	section("B3 — wire throughput: JSON vs binary codec, with and without batching")
	res := experiments.WireStudy(wireConfig(seed, smoke))
	fmt.Print(res.Table())
	fmt.Println("(internal/wire through internal/rpc: the binary envelope codec must")
	fmt.Println(" beat JSON on both messages/sec and allocs/op; batching coalesces")
	fmt.Println(" same-destination sends at the cost of up to its flush delay)")
	if err := wireCheck(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchgrid:", err)
		os.Exit(1)
	}
}

// sloConfig selects the SLO study size: the stock configuration over the
// full chaos workload, or a seconds-long smoke setting for CI
// (make slo-smoke). Both reuse the chaos workload so the detection-lag
// numbers describe the same faults B2 already characterizes.
func sloConfig(seed int64, smoke bool) experiments.SLOConfig {
	if smoke {
		return experiments.SLOSmokeConfig(seed)
	}
	return experiments.SLOConfig{Chaos: experiments.ChaosConfig{Seed: seed}}
}

// sloCheck enforces the B7 acceptance bar: fault-free rows are silent
// (zero alerts, zero dumps), every faulted row fires at least one alert
// within the detection budget, each fire freezes exactly one black box,
// and every retained dump validates.
func sloCheck(res experiments.SLOResult) error {
	if bad := res.Check(); len(bad) > 0 {
		return fmt.Errorf("slo: %s", bad[0])
	}
	return nil
}

func sloStudy(seed int64, smoke bool) {
	section("B7 — SLO detection latency and flight-recorder coverage")
	res := experiments.SLOStudy(sloConfig(seed, smoke))
	fmt.Print(res.Table())
	fmt.Println("(internal/slo over internal/flightrec: fault-free rows must stay")
	fmt.Println(" silent; every faulted row must page within the detection budget,")
	fmt.Println(" and each fire freezes one validated black-box dump)")
	if err := sloCheck(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchgrid:", err)
		os.Exit(1)
	}
}

// scaleConfig selects the scale study size: the stock 10⁶-job run on the
// production wheel alone, or a seconds-long dual-engine smoke setting for
// CI (make scale-smoke) whose rows benchgrid diffs column by column.
func scaleConfig(seed int64, smoke bool) experiments.ScaleConfig {
	if !smoke {
		return experiments.ScaleConfig{Seed: seed}
	}
	return experiments.ScaleConfig{
		Jobs:             10_000,
		Machines:         100,
		MachineSize:      32,
		MeanInterarrival: 200 * time.Millisecond,
		Engines:          []vtime.TimerEngine{vtime.EngineHeap, vtime.EngineWheel},
		Seed:             seed,
	}
}

// scaleCheck enforces the B4 acceptance bar: every row accounts for every
// job with zero failures (wall limits are sized so a correctly scheduled
// job cannot hit one), and when the sweep runs more than one timer engine,
// every deterministic virtual-time column must agree across the rows —
// the smoke-sized kernel-equivalence differential.
func scaleCheck(res experiments.ScaleResult) error {
	for _, row := range res.Rows {
		if got := row.Done + row.Failed; got != int64(res.Jobs) {
			return fmt.Errorf("scale: engine %s accounted for %d of %d jobs", row.Engine, got, res.Jobs)
		}
		if row.Failed != 0 {
			return fmt.Errorf("scale: engine %s failed %d jobs", row.Engine, row.Failed)
		}
	}
	for i := 1; i < len(res.Rows); i++ {
		if !res.Rows[0].VirtualEqual(res.Rows[i]) {
			return fmt.Errorf("scale: engines %s and %s diverge on virtual-time columns:\n  %+v\n  %+v",
				res.Rows[0].Engine, res.Rows[i].Engine, res.Rows[0], res.Rows[i])
		}
	}
	return nil
}

func scaleStudy(seed int64, smoke bool) {
	section("B4 — kernel throughput at scale: timer wheel vs reference heap")
	res := experiments.ScaleStudy(scaleConfig(seed, smoke))
	fmt.Print(res.Table())
	fmt.Println("(internal/vtime + internal/lrm: the timing wheel, passive timers")
	fmt.Println(" and release index carry the whole job stream; dual-engine")
	fmt.Println(" rows must agree on every virtual-time column, byte for byte)")
	if err := scaleCheck(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchgrid:", err)
		os.Exit(1)
	}
}

func ablation() {
	section("Ablation — sequential vs parallel subjob submission")
	rows := experiments.SubmissionAblation(64, []int{1, 5, 10, 25})
	fmt.Print(experiments.AblationTable(rows))
	fmt.Println("(the paper's DUROC submitted sequentially — Figure 5 — leaving")
	fmt.Println(" pipelining as the only overlap; parallel submission is flat)")
	fmt.Println()
	wide := experiments.WideAreaStudy(8, 64, []time.Duration{
		time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond,
	})
	fmt.Print(experiments.WideAreaTable(wide))
	fmt.Println("(Section 4.2: wide-area barrier costs are negligible next to startup delays)")
}
