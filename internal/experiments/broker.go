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

// loadSetting is the shape the brokered studies (B1, B2, B6, and B7
// through B2) share: the grid, the request every client submits, and the
// stream of them.
type loadSetting struct {
	machines, machineSize       int
	sites, procsPerSite, spares int
	// workers is the broker's (each replica's) worker count.
	workers int
	// workTime is how long each committed application holds its
	// processors — the resource that saturates first.
	workTime time.Duration
	// requests is the request count per row, spread round-robin over
	// tenants tenant identities.
	requests, tenants int
}

// setting returns full, or small when smoke is set: every study has
// exactly these two sizes.
func setting[S any](smoke bool, full, small S) S {
	if smoke {
		return small
	}
	return full
}

// stockSeed is the seed a study runs at: seed, or the stock seed 1 for 0.
func stockSeed(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// request is what client i of the stream submits.
func (s loadSetting) request(i int) broker.Request {
	return broker.Request{
		Tenant:       fmt.Sprintf("tenant%d", i%s.tenants),
		Sites:        s.sites,
		ProcsPerSite: s.procsPerSite,
		Executable:   "app",
		Spares:       s.spares,
	}
}

// testbed assembles one run's grid: the setting's batch machines behind a
// broker of the given admission bound and retry hint, or behind replicas of
// them (0: a lone broker0).
func (s loadSetting) testbed(seed int64, replicas, queueBound int, retryAfter time.Duration) *workload.Testbed {
	return workload.NewTestbed(workload.Spec{
		Seed:           seed,
		Machines:       workload.BatchSites(s.machines, s.machineSize),
		Counts:         []int{s.procsPerSite},
		WorkTime:       s.workTime,
		BarrierTimeout: 24 * time.Hour,
		Replicas:       replicas,
		Broker: &broker.Options{
			QueueBound:      queueBound,
			Workers:         s.workers,
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

// brokerSetting is one size of the broker load study: its grid and
// stream, the open-loop offered loads (Poisson arrivals per minute) swept
// against the admission queue bounds, and the closed-loop client counts
// (each client resubmits as soon as its previous request finishes, the
// requests split between them), which run at the first queue bound.
type brokerSetting struct {
	loadSetting
	ratesPerMin   []float64
	queueBounds   []int
	closedClients []int
}

// B1's two sizes: the stock 6 batch machines of 32 processors serving
// 2-site, 8-processes-per-site requests through a 3-worker broker, and the
// seconds-long smoke setting `benchgrid -smoke` and `tracegrid -smoke`
// share.
var (
	brokerFull = brokerSetting{
		loadSetting: loadSetting{machines: 6, machineSize: 32, sites: 2, procsPerSite: 8, spares: 1,
			workers: 3, workTime: 2 * time.Minute, requests: 30, tenants: 3},
		ratesPerMin:   []float64{2, 6, 12},
		queueBounds:   []int{4, 16},
		closedClients: []int{2, 6},
	}
	brokerSmoke = brokerSetting{
		loadSetting: loadSetting{machines: 3, machineSize: 16, sites: 2, procsPerSite: 4, spares: 1,
			workers: 2, workTime: time.Minute, requests: 8, tenants: 2},
		ratesPerMin:   []float64{4, 12},
		queueBounds:   []int{2},
		closedClients: []int{2},
	}
	// brokerExposition is the grid of the one row `benchgrid -metrics-out`
	// exposes: the smoke grid with 30-second jobs.
	brokerExposition = loadSetting{machines: 3, machineSize: 16, sites: 2, procsPerSite: 4, spares: 1,
		workers: 2, workTime: 30 * time.Second, requests: 8, tenants: 2}
)

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
func BrokerLoadStudy(seed int64, smoke bool) BrokerLoadResult {
	s := setting(smoke, brokerFull, brokerSmoke)
	seed = stockSeed(seed)
	res := BrokerLoadResult{
		Machines:     s.machines,
		MachineSize:  s.machineSize,
		Workers:      s.workers,
		Sites:        s.sites,
		ProcsPerSite: s.procsPerSite,
	}
	for _, bound := range s.queueBounds {
		for _, rate := range s.ratesPerMin {
			row, _ := brokerOpenRun(s.loadSetting, seed, rate, bound)
			res.Rows = append(res.Rows, row)
		}
	}
	for _, clients := range s.closedClients {
		row, _ := brokerClosedRun(s.loadSetting, seed, clients, s.queueBounds[0])
		res.Rows = append(res.Rows, row)
	}
	return res
}

// BrokerLoadRun executes one open-loop row of the study at the given size:
// its requests arrive Poisson at ratePerMin against a broker with the given
// admission bound. The returned grid carries the run's Tracer and Counters
// — two runs with the same arguments produce byte-identical exports, which
// TestBrokerLoadDeterminism locks in.
func BrokerLoadRun(seed int64, smoke bool, ratePerMin float64, queueBound int) (BrokerLoadRow, *grid.Grid) {
	return brokerOpenRun(setting(smoke, brokerFull, brokerSmoke).loadSetting, stockSeed(seed), ratePerMin, queueBound)
}

// ExpositionRun executes the one row `benchgrid -metrics-out` exposes:
// 30-second jobs on the smoke grid, 8 requests at 6/min against an 8-deep
// admission queue — well under a second of real time, yet every
// instrumented layer is touched.
func ExpositionRun(seed int64) (BrokerLoadRow, *grid.Grid) {
	return brokerOpenRun(brokerExposition, stockSeed(seed), 6, 8)
}

// brokerOpenRun executes one open-loop row on s.
func brokerOpenRun(s loadSetting, seed int64, ratePerMin float64, queueBound int) (BrokerLoadRow, *grid.Grid) {
	seed += int64(ratePerMin*1000)*31 + int64(queueBound)*7
	row := BrokerLoadRow{
		Mode:          "open",
		OfferedPerMin: ratePerMin,
		QueueBound:    queueBound,
		Requests:      s.requests,
	}
	load := workload.Load{
		Hosts:    clientHosts(s.requests),
		Arrivals: poisson(rand.New(rand.NewSource(seed)), s.requests, ratePerMin),
	}
	return brokerLoadRow(s, row, seed, load)
}

// brokerClosedRun executes one closed-loop row: clients concurrent
// submitters, each resubmitting the instant its previous request finishes,
// until s.requests have been issued in total.
func brokerClosedRun(s loadSetting, seed int64, clients, queueBound int) (BrokerLoadRow, *grid.Grid) {
	seed += int64(clients)*101 + int64(queueBound)*7
	load := workload.Load{
		Hosts:     clientHosts(clients),
		Arrivals:  make([]time.Duration, clients),
		PerClient: max(s.requests/clients, 1),
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
	s.tenants = clients
	return brokerLoadRow(s, row, seed, load)
}

// brokerLoadRow runs load against a fresh broker testbed and folds the
// clients' tally and the counter registry into row.
func brokerLoadRow(s loadSetting, row BrokerLoadRow, seed int64, load workload.Load) (BrokerLoadRow, *grid.Grid) {
	tb := s.testbed(seed, 0, row.QueueBound, 20*time.Second)
	// Let the committed jobs run out and their final state callbacks land.
	load.Drain = s.workTime + time.Minute
	t := run(tb, load, func(i, k int, host *transport.Host) bool {
		id := host.Name()
		if load.PerClient > 0 {
			id = fmt.Sprintf("%s/r%d", id, k)
		}
		reply, _, _, err := workload.Submit(host, tb.Ring, 0, id, s.request(i), 0, 50, nil)
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
