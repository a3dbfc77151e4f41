package dst

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"cogrid/internal/agent"
	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/failure"
	"cogrid/internal/federation"
	"cogrid/internal/gram"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/slo"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/workload"
)

// RunOptions tune a single scenario execution.
type RunOptions struct {
	// Bugs is forwarded to the controller: the harness's self-test
	// injects a broken 2PC here and asserts the invariants catch it.
	Bugs core.Bugs
	// Artifacts, when non-nil, is filled with the run's observable byte
	// outputs after quiescence — the streams equivalence runs compare.
	Artifacts *Artifacts
}

// Artifacts captures one run's deterministic byte outputs: the sorted
// trace event log, every gauge resampled on a fixed cadence, and the full
// Prometheus exposition (counters + histograms + gauges). Two runs of the
// same scenario must produce these byte-for-byte identically, whatever
// timer engine, goroutine schedule, or wall-clock conditions they ran
// under.
type Artifacts struct {
	TraceJSONL []byte
	GaugeCSV   []byte
	Metrics    []byte
}

// artifactGaugeStep is the fixed resampling cadence for the gauge CSV
// artifact.
const artifactGaugeStep = 15 * time.Second

// RunResult is one scenario execution plus its invariant verdict.
type RunResult struct {
	Scenario   Scenario    `json:"scenario"`
	Violations []Violation `json:"violations,omitempty"`
	Jobs       int         `json:"jobs"`
	Committed  int         `json:"committed"`
	Aborted    int         `json:"aborted"`
	Faults     int         `json:"faults"`
	Orphans    int64       `json:"orphans"`
	// Elections, Handoffs, and Forwards summarize the federation's
	// activity across all replicas (fed driver only): election wins,
	// journal entries handed off from dead replicas, and forwarded
	// requests committed by a peer.
	Elections int64 `json:"elections,omitempty"`
	Handoffs  int64 `json:"handoffs,omitempty"`
	Forwards  int64 `json:"forwards,omitempty"`
	// Alerts counts SLO fire transitions; Dumps counts retained flight-
	// recorder dumps. Fault-free scenarios owe zero of both (an invariant).
	Alerts int           `json:"alerts,omitempty"`
	Dumps  int           `json:"dumps,omitempty"`
	End    time.Duration `json:"end"`
}

// OK reports whether the run held every invariant.
func (r RunResult) OK() bool { return len(r.Violations) == 0 }

// reapInterval paces the duroc-driver harness reaper; the broker driver
// uses the broker's own.
const reapInterval = 20 * time.Second

// reaper is the duroc driver's stand-in for the broker's orphan reaper:
// it retries unconfirmed subjob cancels until the resource manager
// answers, so the no-leaked-processors invariant is checkable in both
// driver modes.
type reaper struct {
	g  *grid.Grid
	mu sync.Mutex
	// orphans is swept in sorted key order: concurrent cancel daemons
	// record in nondeterministic order and the sweep must not leak it.
	orphans  map[string]core.Orphan
	recorded int64
	reaped   int64
}

func newReaper(g *grid.Grid) *reaper {
	return &reaper{g: g, orphans: make(map[string]core.Orphan)}
}

func (r *reaper) add(o core.Orphan) {
	key := o.Job + "/" + o.Subjob
	r.mu.Lock()
	_, known := r.orphans[key]
	r.orphans[key] = o
	if !known {
		r.recorded++
	}
	r.mu.Unlock()
	r.g.Counters.Add(trace.Key("dst", "orphan", "record", "workstation"), 1)
}

func (r *reaper) run() {
	for {
		r.g.Sim.Sleep(reapInterval)
		r.sweep()
	}
}

func (r *reaper) sweep() {
	r.mu.Lock()
	keys := make([]string, 0, len(r.orphans))
	for k := range r.orphans {
		keys = append(keys, k)
	}
	r.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		r.mu.Lock()
		o, ok := r.orphans[k]
		r.mu.Unlock()
		if !ok || !r.reapOne(o) {
			continue
		}
		r.mu.Lock()
		delete(r.orphans, k)
		r.reaped++
		r.mu.Unlock()
		r.g.Counters.Add(trace.Key("dst", "orphan", "reaped", "workstation"), 1)
	}
}

func (r *reaper) reapOne(o core.Orphan) bool {
	cfg := r.g.ClientConfig()
	cfg.Ctx = o.Ctx.Child("reap")
	client, err := gram.Dial(r.g.Workstation, o.RM, cfg)
	if err != nil {
		return false
	}
	defer client.Close()
	// Cancellation is idempotent at the LRM, so re-cancelling a job the
	// earlier, unacknowledged attempt already killed is a safe no-op.
	return client.CancelTimeout(o.JobContact, 10*time.Second) == nil
}

func (r *reaper) counts() (recorded, reaped int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recorded, r.reaped
}

// Run executes one scenario on a fresh grid and checks every protocol
// invariant against the post-quiescence state. Same scenario, same
// options → byte-identical RunResult.
func Run(sc Scenario, opts RunOptions) (RunResult, error) {
	if err := sc.Validate(); err != nil {
		return RunResult{}, err
	}
	res := RunResult{Scenario: sc, Jobs: len(sc.Jobs)}

	// One testbed serves every driver: the duroc driver's is unbrokered
	// (machines and application only) and gets a controller and the harness
	// reaper on the workstation instead.
	spec := workload.Spec{
		Seed:           sc.Seed,
		WorkTime:       sc.WorkTime,
		BarrierTimeout: 24 * time.Hour,
		Replicas:       sc.Replicas,
		Bugs:           opts.Bugs,
	}
	for _, ms := range sc.Machines {
		mode := lrm.Fork
		if ms.Batch {
			mode = lrm.Batch
		}
		spec.Machines = append(spec.Machines, workload.Machine{Name: ms.Name, Procs: ms.Procs, Mode: mode})
	}
	brokered := sc.Driver == DriverBroker || sc.Driver == DriverFed
	if brokered {
		for _, j := range sc.Jobs {
			spec.Counts = append(spec.Counts, j.ProcsPerSite)
		}
		spec.Broker = &broker.Options{
			QueueBound:      16,
			Workers:         3,
			CacheMaxAge:     45 * time.Second,
			RefreshInterval: 40 * time.Second,
			RetryAfter:      15 * time.Second,
		}
	}
	tb := workload.NewTestbed(spec)
	g, b, fed := tb.Grid, tb.Broker, tb.Fed
	for _, ms := range sc.Machines {
		if ms.Batch {
			workload.RegisterExecutable(g.Machine(ms.Name), "bg")
		}
	}

	// The submit-side peer a partition cuts the machine off from.
	peer := "workstation"
	var ctrl *core.Controller
	var rp *reaper
	switch sc.Driver {
	case DriverBroker:
		peer = "broker0"
	case DriverFed:
		peer = fedReplicaName(0)
	default:
		rp = newReaper(g)
		var err error
		ctrl, err = core.NewController(g.Workstation, core.ControllerConfig{
			Credential:    g.UserCred,
			Registry:      g.Registry,
			CancelTimeout: 15 * time.Second,
			OnOrphan:      rp.add,
			Bugs:          opts.Bugs,
		})
		if err != nil {
			return RunResult{}, err
		}
	}

	// The SLO engine watches the run live, exactly as production would:
	// its daemon evaluates fault-linked objectives on a lagged horizon and
	// fires alerts (plus flight-recorder dumps) while faults are active.
	engine := slo.New(slo.Deps{
		Sim: g.Sim, Tracer: g.Tracer, Counters: g.Counters,
		Gauges: g.Gauges, Samples: g.Samples, Flight: g.Flight,
	}, sloRules(sc), slo.Options{EvalInterval: 10 * time.Second})
	engine.Start()

	plan, healBy := materializeFaults(sc.Faults, peer)
	load := workload.Load{
		Arrivals: make([]time.Duration, len(sc.Jobs)),
		HealBy:   healBy,
	}
	var maxTime time.Duration
	for i, j := range sc.Jobs {
		load.Arrivals[i] = j.At
		maxTime = max(maxTime, j.MaxTime)
		if brokered {
			load.Hosts = append(load.Hosts, fmt.Sprintf("client%02d", i))
		}
	}
	// Every committed job's work done, every leaked job's wall limit fired,
	// and two reap intervals so the reaper observes the healed grid.
	load.Drain = maxTime + sc.WorkTime + 2*time.Minute
	load.Before = func() {
		plan.Apply(g)
		// Broker-crash faults act on replica processes, not machines, so
		// the failure plan leaves them to the driver.
		for _, fs := range sc.Faults {
			if fs.Kind != "broker-crash" {
				continue
			}
			r := fed.Replica(fedReplicaIndex(fs.Target))
			g.Sim.GoDaemon(fmt.Sprintf("dst-fed-crash:%s", fs.Target), func() {
				g.Sim.SleepUntil(fs.At)
				r.Crash()
				g.Sim.Sleep(fs.Dur)
				if err := r.Restart(); err != nil {
					panic(fmt.Sprintf("dst: replica %s restart: %v", fs.Target, err))
				}
			})
		}
		for _, bg := range sc.Background {
			workload.Drive(g.Sim, g.Machine(bg.Machine), "bg", []workload.Job{{
				At: bg.At, Size: bg.Size, Runtime: bg.Runtime, Limit: bg.Limit,
			}})
		}
		if rp != nil {
			g.Sim.GoDaemon("dst-reaper", rp.run)
		}
	}
	tally, err := tb.Run(load, func(i, _ int, host *transport.Host) bool {
		j := sc.Jobs[i]
		if !brokered {
			return submitDuroc(g, ctrl, i, j, sc.WorkTime)
		}
		req := broker.Request{
			Tenant:         j.Tenant,
			Sites:          j.Sites,
			ProcsPerSite:   j.ProcsPerSite,
			Executable:     "app",
			Spares:         j.Spares,
			CommitTimeout:  j.CommitTimeout,
			StartupTimeout: j.StartupTimeout,
			MaxTime:        j.MaxTime,
		}
		// A standalone broker is a ring of one. A federated job goes to one
		// replica, round-robin, and does not walk on: a crashed replica's
		// requests abort, which is what the scenarios' verdicts record. Its
		// stable idempotency key lets the at-most-once audit group every
		// replica's tickets by request.
		ring := tb.Ring
		if fed != nil {
			home := i % sc.Replicas
			ring = ring[home : home+1]
			req.Key = fmt.Sprintf("req%02d", i)
		}
		budget := j.CommitTimeout + j.StartupTimeout + 3*time.Minute
		reply, _, _, err := workload.Submit(host, ring, 0, host.Name(), req, budget, 20, nil)
		return err == nil && reply.OK()
	})
	res.Committed, res.Aborted = tally.Completed, tally.Failed
	res.End = g.Sim.Now()
	res.Faults = len(sc.Faults)

	var jobs []*core.Job
	var fedEntries []federation.Entry
	var recorded, reaped int64
	switch sc.Driver {
	case DriverBroker:
		jobs = b.Controller().Jobs()
		recorded = g.Counters.Get(trace.Key("broker", "orphan", "record", "broker0"))
		reaped = g.Counters.Get(trace.Key("broker", "orphan", "reaped", "broker0"))
	case DriverFed:
		// Audit every incarnation of every replica: a crashed process's
		// jobs still owe the 2PC safety invariants for everything they did
		// before dying.
		for _, r := range fed.Replicas() {
			for _, rb := range r.Brokers() {
				jobs = append(jobs, rb.Controller().Jobs()...)
			}
		}
		fedEntries = fed.MergedJournal()
		// Orphan accounting lives in the replicated journal here: a dead
		// replica's orphans are reaped by peers, not by their recorder.
		for _, e := range fedEntries {
			if e.Kind == federation.KindOrphan {
				recorded++
				if e.State != federation.StateOpen {
					reaped++
				}
			}
		}
		for _, cv := range g.Counters.Snapshot() {
			switch {
			case strings.HasPrefix(cv.Name, "fed.election.win@"):
				res.Elections += cv.Value
			case strings.HasPrefix(cv.Name, "fed.handoff.alloc@"),
				strings.HasPrefix(cv.Name, "fed.handoff.orphan@"),
				strings.HasPrefix(cv.Name, "fed.handoff.ticket@"):
				res.Handoffs += cv.Value
			case strings.HasPrefix(cv.Name, "fed.forward.commit@"):
				res.Forwards += cv.Value
			}
		}
	default:
		jobs = ctrl.Jobs()
		recorded, reaped = rp.counts()
	}
	res.Orphans = recorded

	engine.Stop()
	alerts := engine.Alerts()
	dumps := g.Flight.Dumps()
	res.Alerts = engine.Fires()
	res.Dumps = len(dumps)

	res.Violations = checkInvariants(observations{
		sc:          sc,
		g:           g,
		jobs:        jobs,
		fedEntries:  fedEntries,
		deadlock:    err,
		recorded:    recorded,
		reaped:      reaped,
		bugs:        opts.Bugs,
		alerts:      alerts,
		dumps:       dumps,
		dumpSkipped: g.Flight.Skipped(),
	})
	if len(res.Violations) > 0 {
		// Freeze the black box for the failing run: the dump is for the
		// human replaying the shrunk scenario, so it is taken after the
		// checks and never feeds back into them.
		g.Flight.Trigger("invariant", res.Violations[0].Invariant)
	}
	if opts.Artifacts != nil {
		if err := captureArtifacts(g, opts.Artifacts); err != nil {
			return res, err
		}
	}
	return res, nil
}

// captureArtifacts renders the run's deterministic byte outputs.
func captureArtifacts(g *grid.Grid, a *Artifacts) error {
	var buf bytes.Buffer
	if err := g.Tracer.WriteJSONL(&buf); err != nil {
		return fmt.Errorf("dst: trace artifact: %w", err)
	}
	a.TraceJSONL = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := g.Gauges.Series(artifactGaugeStep, g.Sim.Now()).WriteCSV(&buf); err != nil {
		return fmt.Errorf("dst: gauge artifact: %w", err)
	}
	a.GaugeCSV = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := g.WriteMetrics(&buf); err != nil {
		return fmt.Errorf("dst: metrics artifact: %w", err)
	}
	a.Metrics = append([]byte(nil), buf.Bytes()...)
	return nil
}

// sloRules is the standard DST objective set. Every rule is tied to a
// signal that cannot move on a fault-free run — non-shutdown transport
// drops, unreaped orphans, missing federation replicas — so the
// no-false-positive invariant holds across arbitrary random scenarios,
// while any fault that breaches an objective must alert.
func sloRules(sc Scenario) []slo.Rule {
	rules := []slo.Rule{{
		Name:     "transport-drop-storm",
		Kind:     slo.KindRateDelta,
		Metric:   "transport.drops",
		Window:   2 * time.Minute,
		Value:    1,
		Severity: "page",
	}}
	switch sc.Driver {
	case DriverBroker:
		rules = append(rules, slo.Rule{
			Name:     "broker-orphans",
			Kind:     slo.KindGaugeLevel,
			Metric:   "broker.orphans@broker0",
			Op:       ">=",
			Value:    1,
			Severity: "page",
		})
	case DriverFed:
		rules = append(rules, slo.Rule{
			Name:     "fed-replica-down",
			Kind:     slo.KindGaugeLevel,
			Metric:   "fed.live_replicas",
			Op:       "<=",
			Value:    float64(sc.Replicas) - 0.5,
			Severity: "page",
		})
	}
	return rules
}

// materializeFaults expands fault specs into the paired onset+heal
// actions of a failure plan, and reports when the last heal lands.
func materializeFaults(faults []FaultSpec, peer string) (failure.Plan, time.Duration) {
	var plan failure.Plan
	var healBy time.Duration
	for _, f := range faults {
		end := f.At + f.Dur
		if end > healBy {
			healBy = end
		}
		switch f.Kind {
		case "hang":
			plan = append(plan,
				failure.Action{At: f.At, Kind: failure.HostHang, Target: f.Target},
				failure.Action{At: end, Kind: failure.HostRestore, Target: f.Target})
		case "slow":
			factor := f.Factor
			if factor < 1 {
				factor = 10
			}
			plan = append(plan,
				failure.Action{At: f.At, Kind: failure.MachineSlow, Target: f.Target, Factor: factor},
				failure.Action{At: end, Kind: failure.MachineSlow, Target: f.Target, Factor: 1})
		case "partition":
			plan = append(plan,
				failure.Action{At: f.At, Kind: failure.Partition, Target: peer, Target2: f.Target},
				failure.Action{At: end, Kind: failure.Heal, Target: peer, Target2: f.Target})
		case "down":
			plan = append(plan,
				failure.Action{At: f.At, Kind: failure.MachineDown, Target: f.Target},
				failure.Action{At: end, Kind: failure.MachineUp, Target: f.Target})
		case "crash":
			plan = append(plan,
				failure.Action{At: f.At, Kind: failure.HostCrash, Target: f.Target},
				failure.Action{At: end, Kind: failure.MachineRestart, Target: f.Target})
		case "revoke":
			plan = append(plan,
				failure.Action{At: f.At, Kind: failure.RevokeUser, Target: grid.DefaultUser},
				failure.Action{At: end, Kind: failure.ReinstateUser, Target: grid.DefaultUser})
		case "broker-crash":
			// Replica processes are not grid machines; the driver crashes
			// and restarts them directly. Only the heal horizon above
			// matters here.
		}
	}
	return plan.Sorted(), healBy
}

// submitDuroc drives one co-allocation through the substitution agent.
// The pool holds every machine the job does not already use, so
// interactive failures exercise substitution before dropping subjobs.
func submitDuroc(g *grid.Grid, ctrl *core.Controller, i int, j JobSpec, workTime time.Duration) bool {
	used := map[string]bool{}
	req := core.Request{}
	for _, sj := range j.Subjobs {
		used[sj.Machine] = true
		typ := core.Required
		switch sj.Type {
		case "interactive":
			typ = core.Interactive
		case "optional":
			typ = core.Optional
		}
		req.Subjobs = append(req.Subjobs, core.SubjobSpec{
			Contact:        g.Contact(sj.Machine),
			Count:          sj.Count,
			Executable:     "app",
			Type:           typ,
			MaxTime:        j.MaxTime,
			StartupTimeout: j.StartupTimeout,
		})
	}
	var pool []transport.Addr
	for _, name := range g.Machines() {
		if !used[name] {
			pool = append(pool, g.Contact(name))
		}
	}
	res, err := agent.WithSubstitution(ctrl, req, agent.SubstituteOptions{
		Pool:              pool,
		CommitTimeout:     j.CommitTimeout,
		DropUnreplaceable: true,
		Ctx:               trace.NewRequest(fmt.Sprintf("dst/job%02d", i)),
	})
	if err != nil {
		if res.Job != nil && !res.Job.Done().IsSet() {
			res.Job.Abort("dst: agent gave up")
		}
		return false
	}
	// Wait (bounded — liveness is an invariant under test, not an
	// assumption) for the computation itself, so the driver's quiescence
	// clock starts after the last job finishes, not the last commit.
	res.Job.Done().WaitTimeout(j.MaxTime + workTime + 3*time.Minute)
	return true
}
