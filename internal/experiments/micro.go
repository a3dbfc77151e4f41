package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/metrics"
	"cogrid/internal/trace"
)

// --- Figure 2: GRAM submission latency vs process count ---

// Figure2Row is one point of Figure 2.
type Figure2Row struct {
	Processes int
	Latency   time.Duration
}

// Figure2Result holds the Figure 2 series.
type Figure2Result struct {
	Rows []Figure2Row
}

// Figure2 measures GRAM submission latency — from invocation of the
// allocation command to successful startup of the processes — for several
// job sizes on a fork-mode machine, reproducing the paper's finding that
// the cost is insensitive to process count.
func Figure2(counts []int) Figure2Result {
	var res Figure2Result
	for _, count := range counts {
		g := grid.New(grid.Options{})
		g.AddMachine("origin", 64, lrm.Fork)
		// The executable exits as soon as startup completes, so the DONE
		// callback marks "successful startup of the processes".
		g.RegisterEverywhere("probe", func(p *lrm.Proc) error { return nil })
		var latency time.Duration
		count := count
		err := g.Sim.Run("client", func() {
			// The paper times "from invocation of the allocation command":
			// connection and authentication are part of the request.
			start := g.Sim.Now()
			client, err := g.Dial("origin")
			if err != nil {
				panic(fmt.Sprintf("figure2: dial: %v", err))
			}
			defer client.Close()
			if _, err := client.Submit(fmt.Sprintf(`&(executable=probe)(count=%d)`, count)); err != nil {
				panic(fmt.Sprintf("figure2: submit: %v", err))
			}
			for {
				ev, ok := client.Events().Recv()
				if !ok {
					panic("figure2: callback stream closed")
				}
				if ev.State == lrm.StateDone {
					latency = g.Sim.Now() - start
					return
				}
				if ev.State == lrm.StateFailed {
					panic("figure2: job failed: " + ev.Reason)
				}
			}
		})
		if err != nil {
			panic(err)
		}
		res.Rows = append(res.Rows, Figure2Row{Processes: count, Latency: latency})
	}
	return res
}

// Table renders the result.
func (r Figure2Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 2: GRAM submission latency vs process count",
		"processes", "latency")
	for _, row := range r.Rows {
		t.Add(row.Processes, row.Latency)
	}
	return t
}

// --- Figure 3: single-process GRAM request breakdown ---

// Figure3Result is the per-phase breakdown of one GRAM request.
type Figure3Result struct {
	Phases map[string]time.Duration
	Total  time.Duration
}

// Figure3 instruments a single-process GRAM request and reports where the
// time goes, reproducing the paper's breakdown (initgroups 0.7 s,
// authentication 0.5 s, misc 0.01 s, fork 0.001 s).
func Figure3() Figure3Result {
	g := grid.New(grid.Options{Trace: true})
	g.AddMachine("origin", 64, lrm.Fork)
	g.RegisterEverywhere("probe", func(p *lrm.Proc) error { return nil })
	err := g.Sim.Run("client", func() {
		client, err := g.Dial("origin")
		if err != nil {
			panic(fmt.Sprintf("figure3: dial: %v", err))
		}
		defer client.Close()
		if _, err := client.Submit(`&(executable=probe)(count=1)`); err != nil {
			panic(fmt.Sprintf("figure3: submit: %v", err))
		}
	})
	if err != nil {
		panic(err)
	}
	res := Figure3Result{Phases: submissionTimeline(g).PhaseTotals()}
	for _, d := range res.Phases {
		res.Total += d
	}
	return res
}

// submissionTimeline projects a traced grid's events onto the phases its
// gatekeepers and controllers recorded: Figure 3's rows, Figure 5's picture.
func submissionTimeline(g *grid.Grid) *metrics.Timeline {
	return trace.DeriveTimeline(g.Sim, g.Tracer.Events(), trace.IsPhase)
}

// Table renders the breakdown largest-first, as the paper's table does.
func (r Figure3Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 3: breakdown of a single-process GRAM request",
		"operation", "latency")
	type kv struct {
		name string
		d    time.Duration
	}
	rows := make([]kv, 0, len(r.Phases))
	for name, d := range r.Phases {
		rows = append(rows, kv{name, d})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	for _, row := range rows {
		t.Add(row.name, row.d)
	}
	t.Add("total", r.Total)
	return t
}

// --- Figure 4: DUROC submission time vs subjob count ---

// Figure4Row is one point of Figure 4.
type Figure4Row struct {
	Subjobs        int
	Measured       time.Duration // DUROC: submit to barrier release
	Synthetic      time.Duration // k·(M-1) + T(1) pipeline model
	GRAMTimesCount time.Duration // zero-concurrency expectation
	AvgBarrierWait time.Duration
	HalfMeasured   time.Duration // the paper's "DUROC / 2" reference line
}

// Figure4Result holds the Figure 4 series and the fitted pipeline
// parameters.
type Figure4Result struct {
	TotalProcesses int
	Rows           []Figure4Row
	// K is the fitted per-subjob pipeline latency (the paper's k).
	K time.Duration
	// SingleGRAM is the single-subjob latency used for the
	// zero-concurrency line.
	SingleGRAM time.Duration
	// PipelineSaving is 1 - T(maxM) / (maxM · T(1)): the fraction saved
	// versus zero concurrency (the paper reports 44%).
	PipelineSaving float64
	// MeanWaitRatio averages AvgBarrierWait/Measured across rows with
	// more than one subjob (the paper's "approximately one half").
	MeanWaitRatio float64
	// MinWaitMax is the largest per-run minimum barrier wait observed
	// ("the shortest wait time is always zero").
	MinWaitMax time.Duration
}

// durocTiming runs one co-allocation of totalProcs processes split over m
// subjobs on a single 64-processor fork-mode machine, returning the
// submit-to-release time and the per-process barrier waits.
func durocTiming(totalProcs, m int, parallel bool) (time.Duration, []time.Duration) {
	g := grid.New(grid.Options{})
	g.AddMachine("origin", 64, lrm.Fork)
	g.RegisterEverywhere("app", barrierApp(0))
	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential:         g.UserCred,
		Registry:           g.Registry,
		ParallelSubmission: parallel,
	})
	if err != nil {
		panic(err)
	}
	sizes := splitProcs(totalProcs, m)
	var req core.Request
	for i, size := range sizes {
		req.Subjobs = append(req.Subjobs, core.SubjobSpec{
			Label: fmt.Sprintf("sj%d", i), Contact: g.Contact("origin"),
			Count: size, Executable: "app", Type: core.Required,
		})
	}
	var measured time.Duration
	var waits []time.Duration
	err = g.Sim.Run("agent", func() {
		start := g.Sim.Now()
		job, err := ctrl.Submit(req)
		if err != nil {
			panic(fmt.Sprintf("duroc run: submit: %v", err))
		}
		if _, err := job.Commit(0); err != nil {
			panic(fmt.Sprintf("duroc run: commit: %v", err))
		}
		measured = g.Sim.Now() - start
		waits = job.BarrierWaits()
		job.Done().Wait()
	})
	if err != nil {
		panic(err)
	}
	return measured, waits
}

// Figure4 measures DUROC co-allocation time as the number of subjobs
// varies while the total process count stays fixed, all subjobs on one
// 64-processor fork-mode machine as in the paper's experiment.
func Figure4(totalProcs int, subjobCounts []int) Figure4Result {
	res := Figure4Result{TotalProcesses: totalProcs}
	type run struct {
		m        int
		measured time.Duration
		waits    []time.Duration
	}
	var runs []run
	for _, m := range subjobCounts {
		r := run{m: m}
		r.measured, r.waits = durocTiming(totalProcs, m, false)
		runs = append(runs, r)
	}

	// Fit k from the extreme points, as the paper does from its plot.
	first, last := runs[0], runs[len(runs)-1]
	res.SingleGRAM = first.measured
	if last.m > first.m {
		res.K = (last.measured - first.measured) / time.Duration(last.m-first.m)
	}
	var ratioSum float64
	var ratioN int
	for _, r := range runs {
		var sum time.Duration
		minWait := time.Duration(1<<62 - 1)
		for _, w := range r.waits {
			sum += w
			if w < minWait {
				minWait = w
			}
		}
		avg := time.Duration(0)
		if len(r.waits) > 0 {
			avg = sum / time.Duration(len(r.waits))
		}
		if minWait > res.MinWaitMax && len(r.waits) > 0 {
			res.MinWaitMax = minWait
		}
		if r.m > 1 {
			ratioSum += float64(avg) / float64(r.measured)
			ratioN++
		}
		res.Rows = append(res.Rows, Figure4Row{
			Subjobs:        r.m,
			Measured:       r.measured,
			Synthetic:      first.measured + res.K*time.Duration(r.m-1),
			GRAMTimesCount: first.measured * time.Duration(r.m),
			AvgBarrierWait: avg,
			HalfMeasured:   r.measured / 2,
		})
	}
	if ratioN > 0 {
		res.MeanWaitRatio = ratioSum / float64(ratioN)
	}
	if last.m > 1 {
		res.PipelineSaving = 1 - float64(last.measured)/(float64(last.m)*float64(first.measured))
	}
	return res
}

// Table renders the series.
func (r Figure4Result) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Figure 4: DUROC submission time vs subjob count (%d processes total)", r.TotalProcesses),
		"subjobs", "measured", "synthetic k*M", "GRAM*count", "avg barrier wait", "measured/2")
	for _, row := range r.Rows {
		t.Add(row.Subjobs, row.Measured, row.Synthetic, row.GRAMTimesCount, row.AvgBarrierWait, row.HalfMeasured)
	}
	return t
}

// Summary states the paper's three claims against the measurements.
func (r Figure4Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fitted pipeline step k = %s per subjob (single subjob %s)\n",
		seconds(r.K), seconds(r.SingleGRAM))
	fmt.Fprintf(&sb, "pipelining saves %.0f%% versus zero concurrency (paper: 44%%)\n",
		r.PipelineSaving*100)
	fmt.Fprintf(&sb, "average barrier wait / total time = %.2f (paper: ~0.5)\n", r.MeanWaitRatio)
	fmt.Fprintf(&sb, "largest minimum barrier wait across runs = %s (paper: always zero)\n",
		seconds(r.MinWaitMax))
	return sb.String()
}

// --- Figure 4 flatness companion: DUROC time vs process count ---

// Figure4FlatRow is one point of the process-count sweep.
type Figure4FlatRow struct {
	Processes int
	Measured  time.Duration
}

// Figure4Flat verifies the other half of the paper's Section 4.2 finding:
// with the subjob count fixed, co-allocation time is essentially
// independent of the number of processes.
func Figure4Flat(subjobs int, procCounts []int) []Figure4FlatRow {
	var rows []Figure4FlatRow
	for _, total := range procCounts {
		r := Figure4(total, []int{subjobs})
		rows = append(rows, Figure4FlatRow{Processes: total, Measured: r.Rows[0].Measured})
	}
	return rows
}

// --- wide-area companion: where the time goes as latency grows ---

// WideAreaRow decomposes co-allocation cost at one network latency.
type WideAreaRow struct {
	OneWayLatency time.Duration
	Total         time.Duration
	AvgBarrier    time.Duration
	BarrierShare  float64 // avg barrier wait / total
}

// WideAreaStudy reproduces the paper's closing Section 4.2 observation:
// "barrier synchronization costs are negligible in the wide-area compared
// to local startup delays introduced both by GRAM and by local scheduler
// queues". Co-allocations of fixed shape run at increasing one-way
// latencies; the barrier's share of the total barely moves because the
// dominant costs (authentication compute, initgroups, process startup)
// are not network-bound.
func WideAreaStudy(subjobs, totalProcs int, latencies []time.Duration) []WideAreaRow {
	var rows []WideAreaRow
	for _, lat := range latencies {
		g := grid.New(grid.Options{Latency: lat})
		g.AddMachine("origin", 64, lrm.Fork)
		g.RegisterEverywhere("app", barrierApp(0))
		ctrl := newController(g)
		sizes := splitProcs(totalProcs, subjobs)
		var req core.Request
		for i, size := range sizes {
			req.Subjobs = append(req.Subjobs, core.SubjobSpec{
				Label: fmt.Sprintf("sj%d", i), Contact: g.Contact("origin"),
				Count: size, Executable: "app", Type: core.Required,
			})
		}
		var row WideAreaRow
		row.OneWayLatency = lat
		err := g.Sim.Run("agent", func() {
			start := g.Sim.Now()
			job, err := ctrl.Submit(req)
			if err != nil {
				panic(err)
			}
			if _, err := job.Commit(0); err != nil {
				panic(err)
			}
			row.Total = g.Sim.Now() - start
			waits := job.BarrierWaits()
			var sum time.Duration
			for _, w := range waits {
				sum += w
			}
			if len(waits) > 0 {
				row.AvgBarrier = sum / time.Duration(len(waits))
			}
			job.Done().Wait()
		})
		if err != nil {
			panic(err)
		}
		if row.Total > 0 {
			row.BarrierShare = float64(row.AvgBarrier) / float64(row.Total)
		}
		rows = append(rows, row)
	}
	return rows
}

// WideAreaTable renders the study.
func WideAreaTable(rows []WideAreaRow) *metrics.Table {
	t := metrics.NewTable("Wide-area companion: cost decomposition vs one-way network latency",
		"one-way latency", "total", "avg barrier wait", "barrier share")
	for _, row := range rows {
		t.Add(row.OneWayLatency, row.Total, row.AvgBarrier,
			fmt.Sprintf("%.2f", row.BarrierShare))
	}
	return t
}

// --- ablation: sequential pipeline vs parallel submission ---

// AblationRow compares submission disciplines at one subjob count.
type AblationRow struct {
	Subjobs    int
	Sequential time.Duration
	Parallel   time.Duration
	Speedup    float64
}

// SubmissionAblation quantifies the design choice Figure 5 documents: the
// paper's DUROC submits its GRAM requests sequentially (cost T1 + k(M-1)),
// leaving pipelining as the only overlap. The ablation runs the same
// co-allocations with fully parallel submission, which is flat in the
// subjob count — the improvement the paper's timeline analysis hints at
// ("some opportunity for overlap in processing a DUROC request").
func SubmissionAblation(totalProcs int, subjobCounts []int) []AblationRow {
	var rows []AblationRow
	for _, m := range subjobCounts {
		seq, _ := durocTiming(totalProcs, m, false)
		par, _ := durocTiming(totalProcs, m, true)
		rows = append(rows, AblationRow{
			Subjobs:    m,
			Sequential: seq,
			Parallel:   par,
			Speedup:    float64(seq) / float64(par),
		})
	}
	return rows
}

// AblationTable renders the comparison.
func AblationTable(rows []AblationRow) *metrics.Table {
	t := metrics.NewTable("Ablation: sequential (paper) vs parallel subjob submission, 64 processes",
		"subjobs", "sequential", "parallel", "speedup")
	for _, row := range rows {
		t.Add(row.Subjobs, row.Sequential, row.Parallel, row.Speedup)
	}
	return t
}

// --- Figure 5: timeline of a DUROC submission ---

// Figure5 runs one multi-subjob DUROC co-allocation with full phase
// recording and renders the submission timeline: the staggered per-subjob
// GRAM requests (authentication, initgroups, fork), the startup waits, and
// the barrier intervals ending together at commit.
func Figure5(subjobs, totalProcs int) string {
	g := grid.New(grid.Options{Trace: true})
	g.AddMachine("origin", 64, lrm.Fork)
	g.RegisterEverywhere("app", barrierApp(0))
	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	})
	if err != nil {
		panic(err)
	}
	sizes := splitProcs(totalProcs, subjobs)
	var req core.Request
	for i, size := range sizes {
		req.Subjobs = append(req.Subjobs, core.SubjobSpec{
			Label: fmt.Sprintf("sj%d", i), Contact: g.Contact("origin"),
			Count: size, Executable: "app", Type: core.Required,
		})
	}
	err = g.Sim.Run("agent", func() {
		job, err := ctrl.Submit(req)
		if err != nil {
			panic(fmt.Sprintf("figure5: submit: %v", err))
		}
		if _, err := job.Commit(0); err != nil {
			panic(fmt.Sprintf("figure5: commit: %v", err))
		}
		job.Done().Wait()
	})
	if err != nil {
		panic(err)
	}
	return "Figure 5: timeline of a DUROC submission\n" + submissionTimeline(g).Render(96)
}
