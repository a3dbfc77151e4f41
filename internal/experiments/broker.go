package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/grid"
	"cogrid/internal/metrics"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/workload"
)

// --- B1: broker throughput and latency vs offered load and queue bound ---

// LoadConfig is the shape the brokered studies (B1, B2, B6, and B7 through
// B2) share: the grid, the request every client submits, and the stream of
// them. A zero field takes the study's default; negative Spares mean none.
type LoadConfig struct {
	Machines     int
	MachineSize  int
	Sites        int
	ProcsPerSite int
	Spares       int
	// Workers is the broker's (each replica's) worker count.
	Workers int
	// WorkTime is how long each committed application holds its
	// processors — the resource that saturates first.
	WorkTime time.Duration
	// Requests is the request count per row, spread round-robin over
	// Tenants tenant identities.
	Requests int
	Tenants  int
	Seed     int64
}

// The studies' stock settings.
var (
	brokerLoadDefaults = LoadConfig{Machines: 6, MachineSize: 32, Sites: 2, ProcsPerSite: 8, Spares: 1,
		Workers: 3, WorkTime: 2 * time.Minute, Requests: 30, Tenants: 3, Seed: 1}
	chaosDefaults = LoadConfig{Machines: 6, MachineSize: 32, Sites: 2, ProcsPerSite: 8, Spares: 2,
		Workers: 3, WorkTime: 90 * time.Second, Requests: 24, Tenants: 3, Seed: 1}
	// B6 keeps each replica a single-worker broker so the control plane —
	// not the machines — is the bottleneck the extra replicas relieve.
	federationDefaults = LoadConfig{Machines: 8, MachineSize: 32, Sites: 2, ProcsPerSite: 4, Spares: 1,
		Workers: 1, WorkTime: 2 * time.Minute, Requests: 40, Tenants: 3, Seed: 1}
)

// or returns v, or d when v is not positive.
func or[T int | float64 | time.Duration](v, d T) T {
	if v <= 0 {
		return d
	}
	return v
}

// fill takes every unset field from d.
func (c *LoadConfig) fill(d LoadConfig) {
	c.Machines = or(c.Machines, d.Machines)
	c.MachineSize = or(c.MachineSize, d.MachineSize)
	c.Sites = or(c.Sites, d.Sites)
	c.ProcsPerSite = or(c.ProcsPerSite, d.ProcsPerSite)
	if c.Spares == 0 {
		c.Spares = d.Spares
	}
	c.Spares = max(c.Spares, 0)
	c.Workers = or(c.Workers, d.Workers)
	c.WorkTime = or(c.WorkTime, d.WorkTime)
	c.Requests = or(c.Requests, d.Requests)
	c.Tenants = or(c.Tenants, d.Tenants)
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
}

// request is what client i of the stream submits.
func (c LoadConfig) request(i int) broker.Request {
	return broker.Request{
		Tenant:       fmt.Sprintf("tenant%d", i%c.Tenants),
		Sites:        c.Sites,
		ProcsPerSite: c.ProcsPerSite,
		Executable:   "app",
		Spares:       c.Spares,
	}
}

// testbed assembles one run's grid: the configured batch machines behind a
// broker of the given admission bound and retry hint, or behind replicas of
// them (0: a lone broker0).
func (c LoadConfig) testbed(seed int64, replicas, queueBound int, retryAfter time.Duration) *workload.Testbed {
	return workload.NewTestbed(workload.Spec{
		Seed:           seed,
		Machines:       workload.BatchSites(c.Machines, c.MachineSize),
		Counts:         []int{c.ProcsPerSite},
		WorkTime:       c.WorkTime,
		BarrierTimeout: 24 * time.Hour,
		Replicas:       replicas,
		Broker: &broker.Options{
			QueueBound:      queueBound,
			Workers:         c.Workers,
			CacheMaxAge:     45 * time.Second,
			RefreshInterval: 40 * time.Second,
			RetryAfter:      retryAfter,
		},
	})
}

// poisson pre-draws n arrivals at ratePerMin from 10 s on, so the run
// itself is RNG-free.
func poisson(rng *rand.Rand, n int, ratePerMin float64) []time.Duration {
	arrivals := make([]time.Duration, n)
	at := 10 * time.Second
	for i := range arrivals {
		at += time.Duration(rng.ExpFloat64() / ratePerMin * float64(time.Minute))
		arrivals[i] = at
	}
	return arrivals
}

// clientHosts names one host per client.
func clientHosts(n int) []string {
	hosts := make([]string, n)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("client%03d", i)
	}
	return hosts
}

// run plays load on tb; a kernel error (a deadlock) ends the study.
func run(tb *workload.Testbed, load workload.Load, op func(i, k int, host *transport.Host) bool) workload.Tally {
	t, err := tb.Run(load, op)
	if err != nil {
		panic(err)
	}
	return t
}

// BrokerLoadConfig parameterizes the broker load study. Zero values select
// the stock setting: 6 batch machines of 32 processors serving 2-site,
// 8-processes-per-site requests through a 3-worker broker.
type BrokerLoadConfig struct {
	LoadConfig
	// RatesPerMin are the open-loop offered loads (Poisson arrivals).
	RatesPerMin []float64
	// QueueBounds are the broker admission bounds swept per rate.
	QueueBounds []int
	// ClosedClients are closed-loop client counts (each client resubmits
	// as soon as its previous request finishes, Requests split between
	// them); closed rows run at the first queue bound.
	ClosedClients []int
}

func (c *BrokerLoadConfig) fill() {
	c.LoadConfig.fill(brokerLoadDefaults)
	if len(c.RatesPerMin) == 0 {
		c.RatesPerMin = []float64{2, 6, 12}
	}
	if len(c.QueueBounds) == 0 {
		c.QueueBounds = []int{4, 16}
	}
	if len(c.ClosedClients) == 0 {
		c.ClosedClients = []int{2, 6}
	}
}

// BrokerSmokeConfig is the seconds-long B1 setting `benchgrid -smoke`,
// `benchgrid -metrics-out` and `tracegrid -smoke` share.
func BrokerSmokeConfig(seed int64) BrokerLoadConfig {
	return BrokerLoadConfig{
		LoadConfig: LoadConfig{Machines: 3, MachineSize: 16, Sites: 2, ProcsPerSite: 4,
			Workers: 2, WorkTime: time.Minute, Requests: 8, Tenants: 2, Seed: seed},
		RatesPerMin:   []float64{4, 12},
		QueueBounds:   []int{2},
		ClosedClients: []int{2},
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

// BrokerLoadRun executes one open-loop row: Requests Poisson arrivals at
// ratePerMin against a broker with the given admission bound. The returned
// grid carries the run's Tracer and Counters — two runs with the same
// config produce byte-identical exports, which TestBrokerLoadDeterminism
// locks in.
func BrokerLoadRun(cfg BrokerLoadConfig, ratePerMin float64, queueBound int) (BrokerLoadRow, *grid.Grid) {
	cfg.fill()
	seed := cfg.Seed + int64(ratePerMin*1000)*31 + int64(queueBound)*7
	row := BrokerLoadRow{
		Mode:          "open",
		OfferedPerMin: ratePerMin,
		QueueBound:    queueBound,
		Requests:      cfg.Requests,
	}
	load := workload.Load{
		Hosts:    clientHosts(cfg.Requests),
		Arrivals: poisson(rand.New(rand.NewSource(seed)), cfg.Requests, ratePerMin),
	}
	return brokerLoadRow(cfg, row, seed, load)
}

// brokerClosedRun executes one closed-loop row: clients concurrent
// submitters, each resubmitting the instant its previous request finishes,
// until cfg.Requests have been issued in total.
func brokerClosedRun(cfg BrokerLoadConfig, clients, queueBound int) (BrokerLoadRow, *grid.Grid) {
	cfg.fill()
	seed := cfg.Seed + int64(clients)*101 + int64(queueBound)*7
	load := workload.Load{
		Hosts:     clientHosts(clients),
		Arrivals:  make([]time.Duration, clients),
		PerClient: max(cfg.Requests/clients, 1),
	}
	for i := range load.Arrivals {
		// Stagger starts so no two clients share an instant.
		load.Arrivals[i] = 10*time.Second + time.Duration(i)*17*time.Millisecond
	}
	row := BrokerLoadRow{
		Mode:       "closed",
		Clients:    clients,
		QueueBound: queueBound,
		Requests:   load.PerClient * clients,
	}
	// One tenant per client.
	cfg.Tenants = clients
	return brokerLoadRow(cfg, row, seed, load)
}

// brokerLoadRow runs load against a fresh broker testbed and folds the
// clients' tally and the counter registry into row.
func brokerLoadRow(cfg BrokerLoadConfig, row BrokerLoadRow, seed int64, load workload.Load) (BrokerLoadRow, *grid.Grid) {
	tb := cfg.testbed(seed, 0, row.QueueBound, 20*time.Second)
	// Let the committed jobs run out and their final state callbacks land.
	load.Drain = cfg.WorkTime + time.Minute
	t := run(tb, load, func(i, k int, host *transport.Host) bool {
		id := host.Name()
		if load.PerClient > 0 {
			id = fmt.Sprintf("%s/r%d", id, k)
		}
		reply, _, _, err := workload.Submit(host, tb.Ring, 0, id, cfg.request(i), 0, 50, nil)
		return err == nil && reply.OK()
	})
	g := tb.Grid
	row.Completed, row.Failed = t.Completed, t.Failed
	row.P50, row.P99, row.ThroughputPerMin = t.P50, t.P99, t.ThroughputPerMin
	row.Rejects = g.Counters.Get(trace.Key("broker", "queue", "reject", "broker0"))
	row.CacheHits = g.Counters.Get(trace.Key("broker", "cache", "hit", "broker0"))
	row.CacheStale = g.Counters.Get(trace.Key("broker", "cache", "stale", "broker0"))
	for _, cv := range g.Counters.Snapshot() {
		if strings.HasPrefix(cv.Name, "broker.retry.") {
			row.Retries += cv.Value
		}
	}
	return row, g
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
