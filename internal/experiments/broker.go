package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mds"
	"cogrid/internal/metrics"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// --- B1: broker throughput and latency vs offered load and queue bound ---

// BrokerLoadConfig parameterizes the broker load study. Zero values select
// the stock setting: 6 batch machines of 32 processors serving 2-site,
// 8-processes-per-site requests through a 3-worker broker.
type BrokerLoadConfig struct {
	Machines     int
	MachineSize  int
	Sites        int
	ProcsPerSite int
	Spares       int
	Workers      int
	// WorkTime is how long each committed application holds its
	// processors — the resource that saturates first.
	WorkTime time.Duration
	// Requests is the open-loop request count per row (split across
	// closed-loop clients in closed rows).
	Requests int
	// Tenants spreads open-loop requests round-robin over this many
	// tenant identities.
	Tenants int
	// RatesPerMin are the open-loop offered loads (Poisson arrivals).
	RatesPerMin []float64
	// QueueBounds are the broker admission bounds swept per rate.
	QueueBounds []int
	// ClosedClients are closed-loop client counts (each client resubmits
	// as soon as its previous request finishes); closed rows run at the
	// first queue bound.
	ClosedClients []int
	Seed          int64
}

func (c *BrokerLoadConfig) fill() {
	if c.Machines <= 0 {
		c.Machines = 6
	}
	if c.MachineSize <= 0 {
		c.MachineSize = 32
	}
	if c.Sites <= 0 {
		c.Sites = 2
	}
	if c.ProcsPerSite <= 0 {
		c.ProcsPerSite = 8
	}
	if c.Spares < 0 {
		c.Spares = 0
	} else if c.Spares == 0 {
		c.Spares = 1
	}
	if c.Workers <= 0 {
		c.Workers = 3
	}
	if c.WorkTime <= 0 {
		c.WorkTime = 2 * time.Minute
	}
	if c.Requests <= 0 {
		c.Requests = 30
	}
	if c.Tenants <= 0 {
		c.Tenants = 3
	}
	if len(c.RatesPerMin) == 0 {
		c.RatesPerMin = []float64{2, 6, 12}
	}
	if len(c.QueueBounds) == 0 {
		c.QueueBounds = []int{4, 16}
	}
	if len(c.ClosedClients) == 0 {
		c.ClosedClients = []int{2, 6}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// BrokerLoadRow is one load setting's aggregate outcome. Rejects, Retries,
// CacheHits, and CacheStale are read back from the run's counter registry —
// the same numbers `gridsim -counters` prints.
type BrokerLoadRow struct {
	Mode             string        `json:"mode"` // "open" or "closed"
	OfferedPerMin    float64       `json:"offered_per_min,omitempty"`
	Clients          int           `json:"clients,omitempty"`
	QueueBound       int           `json:"queue_bound"`
	Requests         int           `json:"requests"`
	Completed        int           `json:"completed"`
	Failed           int           `json:"failed"`
	Rejects          int64         `json:"rejects"`
	Retries          int64         `json:"retries"`
	CacheHits        int64         `json:"cache_hits"`
	CacheStale       int64         `json:"cache_stale"`
	ThroughputPerMin float64       `json:"throughput_per_min"`
	P50              time.Duration `json:"p50"`
	P99              time.Duration `json:"p99"`
}

// BrokerLoadResult is the B1 study.
type BrokerLoadResult struct {
	Machines     int             `json:"machines"`
	MachineSize  int             `json:"machine_size"`
	Workers      int             `json:"workers"`
	Sites        int             `json:"sites"`
	ProcsPerSite int             `json:"procs_per_site"`
	Rows         []BrokerLoadRow `json:"rows"`
}

// BrokerLoadStudy measures the broker under offered load: open-loop rows
// sweep Poisson arrival rates against admission queue bounds, closed-loop
// rows measure the sustainable ceiling with clients that resubmit
// immediately. Throughput is committed co-allocations per virtual minute;
// latencies are client-observed end to end (admission waits, queueing,
// retries, and the DUROC barrier all included). When the offered rate
// exceeds what the machines drain, the bounded queue pushes back and the
// rejects column — read from the broker.queue.reject counter — goes
// positive.
func BrokerLoadStudy(cfg BrokerLoadConfig) BrokerLoadResult {
	cfg.fill()
	res := BrokerLoadResult{
		Machines:     cfg.Machines,
		MachineSize:  cfg.MachineSize,
		Workers:      cfg.Workers,
		Sites:        cfg.Sites,
		ProcsPerSite: cfg.ProcsPerSite,
	}
	for _, bound := range cfg.QueueBounds {
		for _, rate := range cfg.RatesPerMin {
			row, _ := BrokerLoadRun(cfg, rate, bound)
			res.Rows = append(res.Rows, row)
		}
	}
	for _, clients := range cfg.ClosedClients {
		row, _ := brokerClosedRun(cfg, clients, cfg.QueueBounds[0])
		res.Rows = append(res.Rows, row)
	}
	return res
}

// publishingGrid assembles what every brokered study runs on: a traced
// grid, a directory on mds0, batch machines publishing their load to it
// every 31 s, and the instrumented barrier application.
func publishingGrid(seed int64, machines, machineSize, procsPerSite int, workTime time.Duration) (*grid.Grid, transport.Addr) {
	g := grid.New(grid.Options{Seed: seed, Trace: true})
	dirHost := g.Net.AddHost("mds0")
	if _, err := mds.NewServer(dirHost, 0); err != nil {
		panic(err) // fresh host: cannot fail
	}
	dir := transport.Addr{Host: "mds0", Service: mds.ServiceName}
	for i := 0; i < machines; i++ {
		name := fmt.Sprintf("site%02d", i)
		m := g.AddMachine(name, machineSize, lrm.Batch)
		mds.Publish(m, dir, g.Contact(name), 31*time.Second, procsPerSite, machineSize)
	}
	g.RegisterEverywhere("app", barrierApp(workTime))
	return g, dir
}

// brokerTestbed assembles one run: publishingGrid plus a broker.
func brokerTestbed(cfg BrokerLoadConfig, queueBound int, seed int64) (*grid.Grid, *broker.Broker) {
	g, dir := publishingGrid(seed, cfg.Machines, cfg.MachineSize, cfg.ProcsPerSite, cfg.WorkTime)
	b, err := broker.New(g.Net.AddHost("broker0"), core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	}, broker.Options{
		Directory:       dir,
		QueueBound:      queueBound,
		Workers:         cfg.Workers,
		CacheMaxAge:     45 * time.Second,
		RefreshInterval: 40 * time.Second,
		RetryAfter:      20 * time.Second,
	})
	if err != nil {
		panic(err) // fresh host: cannot fail
	}
	return g, b
}

// tally folds client-observed outcomes as requests finish.
type tally struct {
	mu        sync.Mutex
	completed int
	failed    int
	latencies []float64     // seconds, completed requests only
	lastDone  time.Duration // when the last completed request finished
}

// record counts one request issued at issued and answered at done.
func (t *tally) record(ok bool, issued, done time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !ok {
		t.failed++
		return
	}
	t.completed++
	t.latencies = append(t.latencies, (done - issued).Seconds())
	if done > t.lastDone {
		t.lastDone = done
	}
}

// quantiles returns the median and 99th-percentile completed latency.
func (t *tally) quantiles() (p50, p99 time.Duration) {
	s := metrics.Summarize(t.latencies)
	return time.Duration(s.P50 * float64(time.Second)), time.Duration(s.P99 * float64(time.Second))
}

// openLoop is the open-loop load every brokered study offers: Poisson
// arrivals from 10 s on, one client host per request, outcomes in the
// embedded tally.
type openLoop struct {
	g        *grid.Grid
	arrivals []time.Duration
	hosts    []*transport.Host
	tally
}

// newOpenLoop pre-draws the arrival schedule from rng, so the run itself
// is RNG-free, and creates the client hosts.
func newOpenLoop(g *grid.Grid, rng *rand.Rand, requests int, ratePerMin float64) *openLoop {
	l := &openLoop{g: g, arrivals: make([]time.Duration, requests), hosts: make([]*transport.Host, requests)}
	at := 10 * time.Second
	for i := range l.arrivals {
		at += time.Duration(rng.ExpFloat64() / ratePerMin * float64(time.Minute))
		l.arrivals[i] = at
	}
	for i := range l.hosts {
		l.hosts[i] = g.Net.AddHost(fmt.Sprintf("client%03d", i))
	}
	return l
}

// run plays the schedule to the end of the simulation. Inside the driver
// process, before (if any) goes first — fault plans, crash daemons — then
// one daemon per request sleeps until its arrival and calls submit, which
// reports whether the request committed. Once every client has its answer
// quiesce must let the grid settle: ending the run at the very instant the
// last reply arrives would race shutdown against in-flight callback
// delivery, making counter totals depend on goroutine interleaving.
func (l *openLoop) run(before func(), submit func(i int, host *transport.Host) bool, quiesce func()) {
	sim := l.g.Sim
	err := sim.Run("driver", func() {
		if before != nil {
			before()
		}
		wg := vtime.NewWaitGroup(sim)
		wg.Add(len(l.arrivals))
		for i := range l.arrivals {
			i := i
			sim.GoDaemon(fmt.Sprintf("client%03d", i), func() {
				defer wg.Done()
				sim.SleepUntil(l.arrivals[i])
				ok := submit(i, l.hosts[i])
				l.record(ok, l.arrivals[i], sim.Now())
			})
		}
		wg.Wait()
		quiesce()
	})
	if err != nil {
		panic(err)
	}
}

// BrokerLoadRun executes one open-loop row: Requests Poisson arrivals at
// ratePerMin against a broker with the given admission bound. The returned
// grid carries the run's Tracer and Counters — two runs with the same
// config produce byte-identical exports, which TestBrokerLoadDeterminism
// locks in.
func BrokerLoadRun(cfg BrokerLoadConfig, ratePerMin float64, queueBound int) (BrokerLoadRow, *grid.Grid) {
	cfg.fill()
	seed := cfg.Seed + int64(ratePerMin*1000)*31 + int64(queueBound)*7
	g, b := brokerTestbed(cfg, queueBound, seed)
	l := newOpenLoop(g, rand.New(rand.NewSource(seed)), cfg.Requests, ratePerMin)
	l.run(nil, func(i int, host *transport.Host) bool {
		reply, ok := brokerSubmit(g, host, b, host.Name(), broker.Request{
			Tenant:       fmt.Sprintf("tenant%d", i%cfg.Tenants),
			Sites:        cfg.Sites,
			ProcsPerSite: cfg.ProcsPerSite,
			Executable:   "app",
			Spares:       cfg.Spares,
		})
		return ok && reply.OK()
	}, func() {
		// Let the committed jobs run out and their final state callbacks land.
		g.Sim.Sleep(cfg.WorkTime + time.Minute)
	})
	row := BrokerLoadRow{
		Mode:          "open",
		OfferedPerMin: ratePerMin,
		QueueBound:    queueBound,
		Requests:      cfg.Requests,
	}
	finishRow(&row, g, &l.tally, l.lastDone-l.arrivals[0])
	return row, g
}

// brokerClosedRun executes one closed-loop row: clients concurrent
// submitters, each resubmitting the instant its previous request finishes,
// until cfg.Requests have been issued in total.
func brokerClosedRun(cfg BrokerLoadConfig, clients, queueBound int) (BrokerLoadRow, *grid.Grid) {
	cfg.fill()
	seed := cfg.Seed + int64(clients)*101 + int64(queueBound)*7
	g, b := brokerTestbed(cfg, queueBound, seed)

	perClient := cfg.Requests / clients
	if perClient < 1 {
		perClient = 1
	}
	hosts := make([]*transport.Host, clients)
	for i := range hosts {
		hosts[i] = g.Net.AddHost(fmt.Sprintf("client%03d", i))
	}
	start := 10 * time.Second
	var t tally
	err := g.Sim.Run("driver", func() {
		wg := vtime.NewWaitGroup(g.Sim)
		wg.Add(clients)
		for i := 0; i < clients; i++ {
			i := i
			g.Sim.GoDaemon(fmt.Sprintf("client%03d", i), func() {
				defer wg.Done()
				// Stagger starts so no two clients share an instant.
				g.Sim.SleepUntil(start + time.Duration(i)*17*time.Millisecond)
				for k := 0; k < perClient; k++ {
					issued := g.Sim.Now()
					reply, ok := brokerSubmit(g, hosts[i], b, fmt.Sprintf("%s/r%d", hosts[i].Name(), k), broker.Request{
						Tenant:       fmt.Sprintf("tenant%d", i),
						Sites:        cfg.Sites,
						ProcsPerSite: cfg.ProcsPerSite,
						Executable:   "app",
						Spares:       cfg.Spares,
					})
					t.record(ok && reply.OK(), issued, g.Sim.Now())
				}
			})
		}
		wg.Wait()
		// Quiesce as openLoop.run requires: drain the last jobs' callbacks.
		g.Sim.Sleep(cfg.WorkTime + time.Minute)
	})
	if err != nil {
		panic(err)
	}
	row := BrokerLoadRow{
		Mode:       "closed",
		Clients:    clients,
		QueueBound: queueBound,
		Requests:   perClient * clients,
	}
	finishRow(&row, g, &t, t.lastDone-start)
	return row, g
}

// brokerSubmit performs one submission with reject-retry, reporting
// failures as ok=false rather than aborting the run. id names the causal
// request tree this submission roots: every hop, RPC, broker decision, and
// DUROC 2PC leg it causes parents beneath one root span whose window is
// the client-observed issue-to-reply latency.
func brokerSubmit(g *grid.Grid, host *transport.Host, b *broker.Broker, id string, req broker.Request) (broker.Reply, bool) {
	ctx := trace.NewRequest(id)
	sim := host.Network().Sim()
	start := sim.Now()
	c, err := broker.DialCtx(host, b.Contact(), ctx)
	if err != nil {
		return broker.Reply{}, false
	}
	defer c.Close()
	reply, _, err := c.SubmitWait(req, 0, 50)
	host.Network().Tracer().SpanAtCtx(ctx, "client", "request", host.Name(), req.Tenant, "", start, sim.Now())
	return reply, err == nil
}

// finishRow folds the run's tally and counter registry into row.
func finishRow(row *BrokerLoadRow, g *grid.Grid, t *tally, makespan time.Duration) {
	row.Completed, row.Failed = t.completed, t.failed
	row.P50, row.P99 = t.quantiles()
	if makespan > 0 {
		row.ThroughputPerMin = float64(row.Completed) / makespan.Minutes()
	}
	row.Rejects = g.Counters.Get(trace.Key("broker", "queue", "reject", "broker0"))
	row.CacheHits = g.Counters.Get(trace.Key("broker", "cache", "hit", "broker0"))
	row.CacheStale = g.Counters.Get(trace.Key("broker", "cache", "stale", "broker0"))
	for _, cv := range g.Counters.Snapshot() {
		if strings.HasPrefix(cv.Name, "broker.retry.") {
			row.Retries += cv.Value
		}
	}
}

// Table renders the study.
func (r BrokerLoadResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("B1: broker load study, %d machines x %d procs, %d workers, %dx%d requests",
			r.Machines, r.MachineSize, r.Workers, r.Sites, r.ProcsPerSite),
		"mode", "offered/min", "clients", "qbound", "reqs", "ok", "fail",
		"rejects", "retries", "cache h/s", "thr/min", "p50", "p99")
	for _, row := range r.Rows {
		offered, clients := "-", "-"
		if row.Mode == "open" {
			offered = fmt.Sprintf("%.1f", row.OfferedPerMin)
		} else {
			clients = fmt.Sprint(row.Clients)
		}
		t.Add(row.Mode, offered, clients, row.QueueBound, row.Requests,
			row.Completed, row.Failed, row.Rejects, row.Retries,
			fmt.Sprintf("%d/%d", row.CacheHits, row.CacheStale),
			row.ThroughputPerMin, row.P50, row.P99)
	}
	return t
}
