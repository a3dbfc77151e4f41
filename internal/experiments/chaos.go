package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"cogrid/internal/failure"
	"cogrid/internal/grid"
	"cogrid/internal/metrics"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/workload"
)

// --- B2: broker resilience under injected faults (chaos study) ---

// ChaosConfig parameterizes the chaos study: B1's open-loop Poisson load
// replayed against a grid where a seeded fraction of the machines
// suffers one of the paper's Section 2 failure modes mid-run.
type ChaosConfig struct {
	LoadConfig
	// RatePerMin is the open-loop Poisson arrival rate.
	RatePerMin float64
	// FaultRates is the swept per-machine fault probability, one row each.
	FaultRates []float64
	// Window is the span fault onsets are drawn from (measured from the
	// first arrival).
	Window time.Duration
	// MaxTime is the per-subjob wall-time limit: the LRM-side bound on how
	// long a committed-but-lost job can hold processors even if every
	// cancel were lost.
	MaxTime time.Duration
	// SubmitBudget is each client's total SubmitWait budget; the broker
	// sees it as the request deadline and abandons work past it.
	SubmitBudget time.Duration
}

func (c *ChaosConfig) fill() {
	c.LoadConfig.fill(chaosDefaults)
	c.RatePerMin = or(c.RatePerMin, 4)
	if len(c.FaultRates) == 0 {
		c.FaultRates = []float64{0, 0.25, 0.5, 1}
	}
	c.Window = or(c.Window, 5*time.Minute)
	c.MaxTime = or(c.MaxTime, 8*time.Minute)
	c.SubmitBudget = or(c.SubmitBudget, 10*time.Minute)
}

// ChaosRow is one fault-rate setting's outcome. Abandoned, orphan, and
// fault-class columns are read from the run's counter registry; LeakedJobs
// is the machine-side ground truth — non-terminal LRM jobs surviving
// quiescence, which must be zero when every orphan was reaped.
type ChaosRow struct {
	FaultRate       float64       `json:"fault_rate"`
	Faults          int           `json:"faults"`
	FaultKinds      string        `json:"fault_kinds,omitempty"`
	FirstFault      time.Duration `json:"first_fault,omitempty"`
	Requests        int           `json:"requests"`
	Completed       int           `json:"completed"`
	Failed          int           `json:"failed"`
	Abandoned       int64         `json:"abandoned"`
	Rejects         int64         `json:"rejects"`
	Retries         int64         `json:"retries"`
	WatchdogAborts  int64         `json:"watchdog_aborts"`
	FaultClasses    string        `json:"fault_classes,omitempty"`
	OrphansRecorded int64         `json:"orphans_recorded"`
	OrphansReaped   int64         `json:"orphans_reaped"`
	LeakedJobs      int           `json:"leaked_jobs"`
	SuccessRate     float64       `json:"success_rate"`
	P50             time.Duration `json:"p50"`
	P99             time.Duration `json:"p99"`
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
func ChaosStudy(cfg ChaosConfig) ChaosResult {
	cfg.fill()
	res := ChaosResult{
		Machines:     cfg.Machines,
		MachineSize:  cfg.MachineSize,
		Workers:      cfg.Workers,
		Sites:        cfg.Sites,
		ProcsPerSite: cfg.ProcsPerSite,
	}
	for _, rate := range cfg.FaultRates {
		row, _ := ChaosRun(cfg, rate)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// drawPlan draws one fault plan from rng: each machine suffers at most
// one fault with probability faultRate — hang, overload, partition from
// the broker, resource-manager outage, or crash — paired with the action
// that later heals it, plus (at the same probability) one grid-wide
// credential revocation window. Crashes pair with MachineRestart so the
// machine comes back reachable and the reaper can drain it. Every fault
// heals inside the run, which is what entitles the zero-leak assertion.
func drawPlan(cfg ChaosConfig, faultRate float64, rng *rand.Rand, start time.Duration) failure.Plan {
	var plan failure.Plan
	for i := 0; i < cfg.Machines; i++ {
		if rng.Float64() >= faultRate {
			continue
		}
		name := fmt.Sprintf("site%02d", i)
		at := start + time.Duration(rng.Float64()*float64(cfg.Window))
		dur := 30*time.Second + time.Duration(rng.Float64()*float64(90*time.Second))
		switch rng.Intn(5) {
		case 0: // silent hang: failures surface only as lack of progress
			plan = append(plan,
				failure.Action{At: at, Kind: failure.HostHang, Target: name},
				failure.Action{At: at + dur, Kind: failure.HostRestore, Target: name})
		case 1: // overload: startup slows 25x, then recovers
			plan = append(plan,
				failure.Action{At: at, Kind: failure.MachineSlow, Target: name, Factor: 25},
				failure.Action{At: at + dur, Kind: failure.MachineSlow, Target: name, Factor: 1})
		case 2: // partition between broker and site, later healed
			plan = append(plan,
				failure.Action{At: at, Kind: failure.Partition, Target: "broker0", Target2: name},
				failure.Action{At: at + dur, Kind: failure.Heal, Target: "broker0", Target2: name})
		case 3: // resource manager outage: submissions error out (detectable)
			plan = append(plan,
				failure.Action{At: at, Kind: failure.MachineDown, Target: name},
				failure.Action{At: at + dur, Kind: failure.MachineUp, Target: name})
		case 4: // crash, then reboot with the LRM job table intact
			plan = append(plan,
				failure.Action{At: at, Kind: failure.HostCrash, Target: name},
				failure.Action{At: at + dur, Kind: failure.MachineRestart, Target: name})
		}
	}
	if rng.Float64() < faultRate {
		// One grid-wide authentication outage: the broker's own credential
		// is revoked, so submissions and reap dials are rejected until it
		// is reinstated.
		at := start + time.Duration(rng.Float64()*float64(cfg.Window))
		dur := 30*time.Second + time.Duration(rng.Float64()*float64(60*time.Second))
		plan = append(plan,
			failure.Action{At: at, Kind: failure.RevokeUser, Target: grid.DefaultUser},
			failure.Action{At: at + dur, Kind: failure.ReinstateUser, Target: grid.DefaultUser})
	}
	return plan.Sorted()
}

// ChaosRun executes one chaos row: pre-drawn Poisson arrivals and a
// pre-drawn fault plan (the run itself is RNG-free), then a quiescence
// window long enough for every fault to heal, every wall-time limit to
// fire, and the orphan reaper to drain. The returned grid carries the
// run's Tracer and Counters; two same-seed runs export byte-identical
// traces and counter tables.
func ChaosRun(cfg ChaosConfig, faultRate float64) (ChaosRow, *grid.Grid) {
	return chaosRun(cfg, faultRate, nil)
}

// chaosRun is ChaosRun with a pre-run hook: onGrid (when non-nil) runs
// after the testbed is assembled but before the simulation starts, so the
// SLO study can arm its engine against the same workload B2 uses.
func chaosRun(cfg ChaosConfig, faultRate float64, onGrid func(*grid.Grid)) (ChaosRow, *grid.Grid) {
	cfg.fill()
	seed := cfg.Seed + int64(faultRate*1000)*13
	tb := cfg.testbed(seed, 0, 16, 20*time.Second)
	g := tb.Grid

	// The fault plan comes from the same stream as, and after, the arrivals.
	rng := rand.New(rand.NewSource(seed))
	load := workload.Load{
		Hosts:    clientHosts(cfg.Requests),
		Arrivals: poisson(rng, cfg.Requests, cfg.RatePerMin),
		// Every committed or leaked job must have run out: WorkTime for
		// healthy ones, the MaxTime wall limit for any the faults detached.
		Drain: cfg.MaxTime + cfg.WorkTime + 2*time.Minute,
	}
	plan := drawPlan(cfg, faultRate, rng, load.Arrivals[0])
	load.Before = func() { plan.Apply(g) }
	for _, a := range plan {
		load.HealBy = max(load.HealBy, a.At)
	}
	if onGrid != nil {
		onGrid(g)
	}
	t := run(tb, load, func(i, _ int, host *transport.Host) bool {
		req := cfg.request(i)
		req.CommitTimeout = 3 * time.Minute
		req.StartupTimeout = 2 * time.Minute
		req.MaxTime = cfg.MaxTime
		// One request per host: its name roots the request's causal tree.
		reply, _, _, err := workload.Submit(host, tb.Ring, 0, host.Name(), req, cfg.SubmitBudget, 50, nil)
		return err == nil && reply.OK()
	})

	row := ChaosRow{
		FaultRate:  faultRate,
		Requests:   cfg.Requests,
		Faults:     countFaultOnsets(plan),
		FaultKinds: faultKindSummary(plan),
		FirstFault: firstFaultOnset(plan),
		Completed:  t.Completed,
		Failed:     t.Failed,
		P50:        t.P50,
		P99:        t.P99,
	}
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
	return row, g
}

// firstFaultOnset returns the earliest onset time in the plan (the plan
// is sorted, but healing actions of an earlier fault can precede a later
// onset, so scan for the first real onset). Zero when the plan is empty.
func firstFaultOnset(plan failure.Plan) time.Duration {
	for _, a := range plan {
		switch a.Kind {
		case failure.HostHang, failure.MachineDown, failure.Partition,
			failure.HostCrash, failure.RevokeUser:
			return a.At
		case failure.MachineSlow:
			if a.Factor > 1 {
				return a.At
			}
		}
	}
	return 0
}

// countFaultOnsets counts fault injections (healing actions excluded).
func countFaultOnsets(plan failure.Plan) int {
	n := 0
	for _, a := range plan {
		switch a.Kind {
		case failure.HostHang, failure.MachineDown, failure.Partition,
			failure.HostCrash, failure.RevokeUser:
			n++
		case failure.MachineSlow:
			if a.Factor > 1 {
				n++
			}
		}
	}
	return n
}

// faultKindSummary renders the plan's onset kinds as "kind:count ...".
func faultKindSummary(plan failure.Plan) string {
	counts := map[string]int{}
	for _, a := range plan {
		switch a.Kind {
		case failure.HostHang, failure.MachineDown, failure.Partition,
			failure.HostCrash, failure.RevokeUser:
			counts[a.Kind.String()]++
		case failure.MachineSlow:
			if a.Factor > 1 {
				counts[a.Kind.String()]++
			}
		}
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s:%d", k, counts[k]))
	}
	return strings.Join(parts, " ")
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
