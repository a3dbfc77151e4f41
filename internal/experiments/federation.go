package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/federation"
	"cogrid/internal/grid"
	"cogrid/internal/metrics"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
)

// --- B6: federated broker scaling — throughput and tail latency vs
// --- replica count under Poisson load with a replica crash ---

// FederationLoadConfig parameterizes the federation scaling study. Zero
// values select the stock setting: 8 batch machines of 32 processors
// behind a replica group swept over {1, 2, 4, 8}, each replica a
// single-worker broker so the control plane — not the machines — is the
// bottleneck the extra replicas relieve.
type FederationLoadConfig struct {
	// ReplicaCounts are the peer-group sizes swept, one row each.
	ReplicaCounts []int
	Machines      int
	MachineSize   int
	Sites         int
	ProcsPerSite  int
	Spares        int
	// Workers is the broker worker count per replica; keep it small so a
	// lone replica saturates and the sweep shows the federation scaling.
	Workers int
	// WorkTime is how long each committed application holds its
	// processors.
	WorkTime time.Duration
	// QueueBound is each replica's admission bound.
	QueueBound int
	// Requests is the open-loop request count per row.
	Requests int
	// Tenants spreads requests round-robin over tenant identities.
	Tenants int
	// RatePerMin is the Poisson arrival rate offered to the whole group.
	RatePerMin float64
	// Outage is how long the crashed replica stays down. Rows with two or
	// more replicas crash the initial leader a third of the way into the
	// arrival schedule; the single-replica row runs crash-free (killing
	// the only broker would measure the outage, not the scaling).
	Outage time.Duration
	Seed   int64
}

func (c *FederationLoadConfig) fill() {
	if len(c.ReplicaCounts) == 0 {
		c.ReplicaCounts = []int{1, 2, 4, 8}
	}
	if c.Machines <= 0 {
		c.Machines = 8
	}
	if c.MachineSize <= 0 {
		c.MachineSize = 32
	}
	if c.Sites <= 0 {
		c.Sites = 2
	}
	if c.ProcsPerSite <= 0 {
		c.ProcsPerSite = 4
	}
	if c.Spares < 0 {
		c.Spares = 0
	} else if c.Spares == 0 {
		c.Spares = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.WorkTime <= 0 {
		c.WorkTime = 2 * time.Minute
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 4
	}
	if c.Requests <= 0 {
		c.Requests = 40
	}
	if c.Tenants <= 0 {
		c.Tenants = 3
	}
	if c.RatePerMin <= 0 {
		c.RatePerMin = 10
	}
	if c.Outage <= 0 {
		c.Outage = 90 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// FederationLoadRow is one replica count's aggregate outcome. Elections,
// Handoffs, Forwards, and Crashes are read back from the run's counter
// registry — the same "fed.*" series the Prometheus exposition carries.
type FederationLoadRow struct {
	Replicas  int   `json:"replicas"`
	Requests  int   `json:"requests"`
	Completed int   `json:"completed"`
	Failed    int   `json:"failed"`
	Rejects   int64 `json:"rejects"`
	// Failovers counts client-side retargets: a client whose replica was
	// down (or died mid-call) redialing the next replica in the ring.
	Failovers int   `json:"failovers"`
	Forwards  int64 `json:"forwards"`
	Elections int64 `json:"elections"`
	Handoffs  int64 `json:"handoffs"`
	Crashes   int64 `json:"crashes"`
	// ThroughputPerMin is committed co-allocations per virtual minute of
	// makespan — the admitted throughput the replica group sustained.
	ThroughputPerMin float64       `json:"throughput_per_min"`
	P50              time.Duration `json:"p50"`
	P99              time.Duration `json:"p99"`
}

// FederationLoadResult is the B6 study.
type FederationLoadResult struct {
	Machines     int                 `json:"machines"`
	MachineSize  int                 `json:"machine_size"`
	Workers      int                 `json:"workers"`
	Sites        int                 `json:"sites"`
	ProcsPerSite int                 `json:"procs_per_site"`
	RatePerMin   float64             `json:"rate_per_min"`
	Rows         []FederationLoadRow `json:"rows"`
}

// FederationLoadStudy measures how admitted throughput and tail latency
// scale with the broker replica count. Every row offers the same Poisson
// arrival stream to the whole group, round-robin across replicas, with
// requests carrying federation idempotency keys; rows with two or more
// replicas additionally crash one replica mid-run and restart it, so the
// multi-replica numbers are earned under the failure mode the federation
// exists to survive. Clients fail over to the next replica when their
// target is down; the shard map forwards requests to their owners; a dead
// replica's journal entries are handed off and reaped by the survivors.
func FederationLoadStudy(cfg FederationLoadConfig) FederationLoadResult {
	cfg.fill()
	res := FederationLoadResult{
		Machines:     cfg.Machines,
		MachineSize:  cfg.MachineSize,
		Workers:      cfg.Workers,
		Sites:        cfg.Sites,
		ProcsPerSite: cfg.ProcsPerSite,
		RatePerMin:   cfg.RatePerMin,
	}
	for _, n := range cfg.ReplicaCounts {
		row, _ := FederationLoadRun(cfg, n)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// fedTestbed assembles one run: a traced grid, a directory, publishing
// batch machines, the instrumented application, and an n-replica
// federation whose per-replica brokers share one configuration.
func fedTestbed(cfg FederationLoadConfig, n int, seed int64) (*grid.Grid, *federation.Federation) {
	g, dir := publishingGrid(seed, cfg.Machines, cfg.MachineSize, cfg.ProcsPerSite, cfg.WorkTime)
	fed, err := federation.New(g.Net, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	}, federation.Options{
		Replicas:  n,
		Directory: dir,
		Broker: broker.Options{
			Directory:       dir,
			QueueBound:      cfg.QueueBound,
			Workers:         cfg.Workers,
			CacheMaxAge:     45 * time.Second,
			RefreshInterval: 40 * time.Second,
			RetryAfter:      15 * time.Second,
		},
	})
	if err != nil {
		panic(err) // fresh hosts: cannot fail
	}
	return g, fed
}

// FederationLoadRun executes one row: Requests Poisson arrivals offered
// round-robin to an n-replica federation, with replica 0 crashed and
// restarted mid-run when n >= 2. The returned grid carries the run's full
// metric registries; two runs with the same config produce byte-identical
// Prometheus expositions, which TestFederationLoadDeterminism locks in.
func FederationLoadRun(cfg FederationLoadConfig, n int) (FederationLoadRow, *grid.Grid) {
	cfg.fill()
	seed := cfg.Seed + int64(n)*1009
	g, fed := fedTestbed(cfg, n, seed)
	l := newOpenLoop(g, rand.New(rand.NewSource(seed)), cfg.Requests, cfg.RatePerMin)

	row := FederationLoadRow{Replicas: n, Requests: cfg.Requests}
	l.run(func() {
		if n < 2 {
			return
		}
		// Kill the initial leader (the highest id wins the first
		// election) a third of the way into the arrival schedule: the
		// survivors elect a new leader, the dead replica's shard hands
		// off, its journal entries are adopted, and its clients fail
		// over — the full failure mode the federation exists to mask.
		crashAt := l.arrivals[len(l.arrivals)/3]
		leader := fed.Replica(n - 1)
		g.Sim.GoDaemon("b6-crash", func() {
			g.Sim.SleepUntil(crashAt)
			leader.Crash()
			g.Sim.Sleep(cfg.Outage)
			if err := leader.Restart(); err != nil {
				panic(fmt.Sprintf("experiments: restart %s: %v", leader.Name(), err))
			}
		})
	}, func(i int, host *transport.Host) bool {
		reply, ok, failovers := fedSubmit(g, host, fed, i%n, host.Name(), broker.Request{
			Tenant:       fmt.Sprintf("tenant%d", i%cfg.Tenants),
			Sites:        cfg.Sites,
			ProcsPerSite: cfg.ProcsPerSite,
			Executable:   "app",
			Spares:       cfg.Spares,
			Key:          fmt.Sprintf("req%03d", i),
		})
		l.mu.Lock()
		row.Failovers += failovers
		l.mu.Unlock()
		return ok && reply.OK()
	}, func() {
		// Let committed jobs run out, then give the peer reaper time to
		// drain any journal entries the crash handed off.
		g.Sim.Sleep(cfg.WorkTime + time.Minute)
		g.Sim.Sleep(3 * fed.Options().PeerReapInterval)
	})

	row.Completed, row.Failed = l.completed, l.failed
	row.P50, row.P99 = l.quantiles()
	if makespan := l.lastDone - l.arrivals[0]; makespan > 0 {
		row.ThroughputPerMin = float64(row.Completed) / makespan.Minutes()
	}
	for _, cv := range g.Counters.Snapshot() {
		switch {
		case strings.HasPrefix(cv.Name, "broker.queue.reject@"):
			row.Rejects += cv.Value
		case strings.HasPrefix(cv.Name, "fed.forward.commit@"):
			row.Forwards += cv.Value
		case strings.HasPrefix(cv.Name, "fed.election.win@"):
			row.Elections += cv.Value
		case strings.HasPrefix(cv.Name, "fed.handoff."):
			row.Handoffs += cv.Value
		case strings.HasPrefix(cv.Name, "fed.replica.crash@"):
			row.Crashes += cv.Value
		}
	}
	return row, g
}

// fedSubmit performs one keyed submission with client-side failover:
// starting from the client's home replica, it walks the ring until a
// replica answers. A dead target costs the dial timeout before the client
// moves on — that tail is part of what the study measures. The federation
// idempotency key makes the walk safe: if a replica committed the
// co-allocation but died before replying, the retried key is answered
// from the replicated journal, not allocated twice. Returns the reply,
// whether any replica answered, and how many failovers the walk took.
func fedSubmit(g *grid.Grid, host *transport.Host, fed *federation.Federation, home int, id string, req broker.Request) (broker.Reply, bool, int) {
	ctx := trace.NewRequest(id)
	sim := host.Network().Sim()
	start := sim.Now()
	n := len(fed.Replicas())
	var reply broker.Reply
	ok := false
	failovers := 0
	for k := 0; k < n; k++ {
		r := fed.Replica((home + k) % n)
		c, err := broker.DialCtx(host, r.BrokerContact(), ctx)
		if err != nil {
			failovers++
			continue
		}
		re, _, err := c.SubmitWait(req, 0, 50)
		c.Close()
		if err != nil {
			failovers++
			continue
		}
		reply, ok = re, true
		break
	}
	host.Network().Tracer().SpanAtCtx(ctx, "client", "request", host.Name(), req.Tenant, "", start, sim.Now())
	return reply, ok, failovers
}

// Table renders the study.
func (r FederationLoadResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("B6: federated broker scaling, %d machines x %d procs, %d worker(s)/replica, %dx%d requests at %.0f/min",
			r.Machines, r.MachineSize, r.Workers, r.Sites, r.ProcsPerSite, r.RatePerMin),
		"replicas", "reqs", "ok", "fail", "rejects", "failovers",
		"fwd", "elect", "handoff", "crash", "thr/min", "p50", "p99")
	for _, row := range r.Rows {
		t.Add(row.Replicas, row.Requests, row.Completed, row.Failed,
			row.Rejects, row.Failovers, row.Forwards, row.Elections,
			row.Handoffs, row.Crashes, row.ThroughputPerMin, row.P50, row.P99)
	}
	return t
}
