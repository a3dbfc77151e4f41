package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"cogrid/internal/grid"
	"cogrid/internal/metrics"
	"cogrid/internal/slo"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/workload"
)

// --- B2: broker resilience under injected faults (chaos study) ---

// chaosSetting is one size of the chaos study: B1's open-loop Poisson
// load replayed against a grid where a seeded fraction of the machines
// suffers one of the paper's Section 2 failure modes mid-run.
type chaosSetting struct {
	loadSetting
	// ratePerMin is the open-loop Poisson arrival rate.
	ratePerMin float64
	// faultRates is the swept per-machine fault probability, one row each.
	faultRates []float64
	// window is the span fault onsets are drawn from (measured from the
	// first arrival).
	window time.Duration
	// maxTime is the per-subjob wall-time limit: the LRM-side bound on how
	// long a committed-but-lost job can hold processors even if every
	// cancel were lost.
	maxTime time.Duration
	// submitBudget is each client's total SubmitWait budget; the broker
	// sees it as the request deadline and abandons work past it.
	submitBudget time.Duration
}

// B2's two sizes, which B7 runs too: the stock grid, and the seconds-long
// smoke setting of `benchgrid -smoke`, `gridsim -chaos` and `gridtop
// -smoke`.
var (
	chaosFull = chaosSetting{
		loadSetting: loadSetting{machines: 6, machineSize: 32, sites: 2, procsPerSite: 8, spares: 2,
			workers: 3, workTime: 90 * time.Second, requests: 24, tenants: 3},
		ratePerMin:   4,
		faultRates:   []float64{0, 0.25, 0.5, 1},
		window:       5 * time.Minute,
		maxTime:      8 * time.Minute,
		submitBudget: 10 * time.Minute,
	}
	chaosSmoke = chaosSetting{
		loadSetting: loadSetting{machines: 4, machineSize: 16, sites: 2, procsPerSite: 4, spares: 1,
			workers: 2, workTime: 45 * time.Second, requests: 6, tenants: 2},
		ratePerMin:   4,
		faultRates:   []float64{0, 0.75},
		window:       2 * time.Minute,
		maxTime:      4 * time.Minute,
		submitBudget: 6 * time.Minute,
	}
)

// ChaosSeed is the seed B2 and B7 run at: seed 0 is the stock seed 1, and
// the smoke setting shifts seeds 0 and 1 to 3, where the high-fault row
// exercises the full orphan pipeline (a crash strands committed subjobs and
// the controller's orphan sweep drains them), so the orphan rule has
// something real to page about.
func ChaosSeed(seed int64, smoke bool) int64 {
	if smoke && (seed == 0 || seed == 1) {
		return 3
	}
	return stockSeed(seed)
}

// ChaosWorkload describes the chaos workload of the given size at
// faultRate in the two lines `gridsim -chaos` opens with.
func ChaosWorkload(smoke bool, faultRate float64) string {
	s := setting(smoke, chaosFull, chaosSmoke)
	return fmt.Sprintf("chaos demo: %d batch machines x %d procs, %d broker workers, fault rate %.2f\n"+
		"requests: %d arrivals (Poisson, %.0f/min) of %d sites x %d processes each\n",
		s.machines, s.machineSize, s.workers, faultRate,
		s.requests, s.ratePerMin, s.sites, s.procsPerSite)
}

// ChaosRow is one fault-rate setting's outcome. Abandoned, orphan, and
// fault-class columns are read from the run's counter registry; LeakedJobs
// counts the non-terminal LRM jobs surviving quiescence.
type ChaosRow struct {
	FaultRate       float64              `json:"fault_rate"`
	Faults          int                  `json:"faults"`
	FaultKinds      string               `json:"fault_kinds,omitempty"`
	FirstFault      time.Duration        `json:"first_fault,omitempty"`
	Requests        int                  `json:"requests"`
	Completed       int                  `json:"completed"`
	Failed          int                  `json:"failed"`
	Abandoned       int64                `json:"abandoned"`
	Rejects         int64                `json:"rejects"`
	Retries         int64                `json:"retries"`
	WatchdogAborts  int64                `json:"watchdog_aborts"`
	FaultClasses    string               `json:"fault_classes,omitempty"`
	OrphansRecorded int64                `json:"orphans_recorded"`
	OrphansReaped   int64                `json:"orphans_reaped"`
	LeakedJobs      int                  `json:"leaked_jobs"`
	SuccessRate     float64              `json:"success_rate"`
	P50             time.Duration        `json:"p50"`
	P99             time.Duration        `json:"p99"`
	Violations      []workload.Violation `json:"violations,omitempty"`
}

// ChaosResult is the B2 study.
type ChaosResult struct {
	Machines     int        `json:"machines"`
	MachineSize  int        `json:"machine_size"`
	Workers      int        `json:"workers"`
	Sites        int        `json:"sites"`
	ProcsPerSite int        `json:"procs_per_site"`
	Rows         []ChaosRow `json:"rows"`
}

// ChaosStudy sweeps the fault rate: at each setting the same Poisson load
// runs against a grid with proportionally more injected failures, and the
// row records how many requests still commit, how long they take, and —
// the resilience criterion — that no allocation leaks: every subjob whose
// cancel was lost mid-2PC is eventually reaped at its resource manager.
func ChaosStudy(seed int64, smoke bool) ChaosResult {
	s := setting(smoke, chaosFull, chaosSmoke)
	seed = ChaosSeed(seed, smoke)
	res := ChaosResult{
		Machines:     s.machines,
		MachineSize:  s.machineSize,
		Workers:      s.workers,
		Sites:        s.sites,
		ProcsPerSite: s.procsPerSite,
	}
	for _, rate := range s.faultRates {
		row, _, _ := chaosRun(s, seed, rate, 0)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Check is the study's acceptance gate, its resilience criterion: every
// row's audit is clean — above all no live job or held processor on any
// machine after quiescence, and every orphan recorded mid-2PC reaped at its
// resource manager. Returns one message per violation.
func (r ChaosResult) Check() (bad []string) {
	for _, row := range r.Rows {
		bad = append(bad, workload.Gate(fmt.Sprintf("fault rate %.2f", row.FaultRate), row.Violations)...)
	}
	return bad
}

// drawFaults draws one fault list from rng: each machine suffers at most
// one fault with probability faultRate — a silent hang (failures surface
// only as lack of progress), a 25x startup overload, a partition from the
// broker, a resource-manager outage (submissions error out), or a crash
// followed by a reboot with the LRM job table intact — plus (at the same
// probability) one grid-wide credential revocation: the broker's own
// credential, so submissions and reap dials are rejected until it is
// reinstated. Every fault heals inside the run, which is what entitles the
// zero-leak assertion.
func drawFaults(s chaosSetting, faultRate float64, rng *rand.Rand, start time.Duration) []workload.Fault {
	var faults []workload.Fault
	for i := 0; i < s.machines; i++ {
		if rng.Float64() >= faultRate {
			continue
		}
		f := workload.Fault{
			Target: fmt.Sprintf("site%02d", i),
			At:     start + time.Duration(rng.Float64()*float64(s.window)),
			Dur:    30*time.Second + time.Duration(rng.Float64()*float64(90*time.Second)),
		}
		f.Kind = [...]string{"hang", "slow", "partition", "down", "crash"}[rng.Intn(5)]
		if f.Kind == "slow" {
			f.Factor = 25
		}
		faults = append(faults, f)
	}
	if rng.Float64() < faultRate {
		at := start + time.Duration(rng.Float64()*float64(s.window))
		dur := 30*time.Second + time.Duration(rng.Float64()*float64(60*time.Second))
		faults = append(faults, workload.Fault{Kind: "revoke", At: at, Dur: dur})
	}
	return faults
}

// ChaosRun executes one chaos row of the study at the given size and
// seed (ChaosSeed applies): pre-drawn Poisson arrivals and
// pre-drawn faults (the run itself is RNG-free), then a quiescence
// window long enough for every fault to heal, every wall-time limit to
// fire, and the controller's orphan sweep to drain. The returned grid carries the
// run's Tracer and Counters; two same-seed runs export byte-identical
// traces and counter tables.
func ChaosRun(seed int64, smoke bool, faultRate float64) (ChaosRow, *grid.Grid) {
	row, g, _ := chaosRun(setting(smoke, chaosFull, chaosSmoke), ChaosSeed(seed, smoke), faultRate, 0)
	return row, g
}

// chaosRun is ChaosRun on a setting and a resolved seed. An eval above 0
// arms the SLO study's engine (sloRules) before the first arrival,
// evaluating every eval; the audit then checks it too.
func chaosRun(s chaosSetting, seed int64, faultRate float64, eval time.Duration) (ChaosRow, *grid.Grid, *slo.Engine) {
	seed += int64(faultRate*1000) * 13
	tb := s.testbed(seed, 0, 16, 20*time.Second)
	g := tb.Grid

	// The faults come from the same stream as, and after, the arrivals.
	rng := rand.New(rand.NewSource(seed))
	load := workload.Load{
		Hosts:    clientHosts(s.requests),
		Arrivals: poisson(rng, s.requests, s.ratePerMin),
		// Every committed or leaked job must have run out: workTime for
		// healthy ones, the maxTime wall limit for any the faults detached.
		Drain: s.maxTime + s.workTime + 2*time.Minute,
	}
	load.Faults = drawFaults(s, faultRate, rng, load.Arrivals[0])
	var eng *slo.Engine
	if eval > 0 {
		eng = slo.New(slo.Deps{Sim: g.Sim, Tracer: g.Tracer, Counters: g.Counters,
			Gauges: g.Gauges, Samples: g.Samples, Flight: g.Flight}, sloRules(s), slo.Options{EvalInterval: eval})
		eng.Start()
	}
	t, violations := run(tb, load, eng, func(i, _ int, host *transport.Host) bool {
		req := s.request(i)
		req.CommitTimeout = 3 * time.Minute
		req.StartupTimeout = 2 * time.Minute
		req.MaxTime = s.maxTime
		// One request per host: its name roots the request's causal tree.
		reply, _, _, err := workload.Submit(host, tb.Ring, 0, host.Name(), req, s.submitBudget, 50, nil)
		return err == nil && reply.OK()
	})

	row := ChaosRow{
		FaultRate:  faultRate,
		Requests:   s.requests,
		Faults:     len(load.Faults),
		Completed:  t.Completed,
		Failed:     t.Failed,
		P50:        t.P50,
		P99:        t.P99,
		Violations: violations,
	}
	onsets := map[string]int{}
	for i, f := range load.Faults {
		onsets[f.Kind]++
		if i == 0 || f.At < row.FirstFault {
			row.FirstFault = f.At
		}
	}
	var kinds []string
	for k, n := range onsets {
		kinds = append(kinds, fmt.Sprintf("%s:%d", k, n))
	}
	sort.Strings(kinds)
	row.FaultKinds = strings.Join(kinds, " ")
	if row.Requests > 0 {
		row.SuccessRate = float64(row.Completed) / float64(row.Requests)
	}
	row.Abandoned = g.Counters.Get(trace.Key("broker", "request", "abandoned", "broker0"))
	row.Rejects = g.Counters.Get(trace.Key("broker", "queue", "reject", "broker0"))
	row.WatchdogAborts = g.Counters.Get(trace.Key("broker", "watchdog", "abort", "broker0"))
	row.OrphansRecorded = g.Counters.Get(trace.Key("broker", "orphan", "record", "broker0"))
	row.OrphansReaped = g.Counters.Get(trace.Key("broker", "orphan", "reaped", "broker0"))
	var classes []string
	for _, cv := range g.Counters.Snapshot() {
		if strings.HasPrefix(cv.Name, "broker.retry.") {
			row.Retries += cv.Value
		}
		if rest, ok := strings.CutPrefix(cv.Name, "broker.fault."); ok {
			classes = append(classes, strings.TrimSuffix(rest, "@broker0")+":"+fmt.Sprint(cv.Value))
		}
	}
	sort.Strings(classes)
	row.FaultClasses = strings.Join(classes, " ")
	for _, name := range g.Machines() {
		row.LeakedJobs += g.Machine(name).LiveJobs()
	}
	return row, g, eng
}

// Table renders the study.
func (r ChaosResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("B2: broker chaos study, %d machines x %d procs, %d workers, %dx%d requests",
			r.Machines, r.MachineSize, r.Workers, r.Sites, r.ProcsPerSite),
		"fault rate", "faults", "reqs", "ok", "fail", "abandoned",
		"retries", "watchdog", "orphans rec/reap", "leaked", "success", "p50", "p99")
	for _, row := range r.Rows {
		t.Add(fmt.Sprintf("%.2f", row.FaultRate), row.Faults, row.Requests,
			row.Completed, row.Failed, row.Abandoned, row.Retries, row.WatchdogAborts,
			fmt.Sprintf("%d/%d", row.OrphansRecorded, row.OrphansReaped),
			row.LeakedJobs, fmt.Sprintf("%.0f%%", row.SuccessRate*100),
			row.P50, row.P99)
	}
	return t
}
