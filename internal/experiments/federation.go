package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"cogrid/internal/grid"
	"cogrid/internal/metrics"
	"cogrid/internal/transport"
	"cogrid/internal/workload"
)

// --- B6: federated broker scaling — throughput and tail latency vs
// --- replica count under Poisson load with a replica crash ---

// fedSetting is one size of the federation scaling study: the grid, and
// the peer-group sizes swept, one row each.
type fedSetting struct {
	loadSetting
	replicaCounts []int
}

// B6's two sizes: 8 batch machines of 32 processors behind a replica group
// swept over {1, 2, 4, 8}, or just the 1-vs-2 rows for CI (make fed-smoke).
// Each replica is a single-worker broker so the control plane — not the
// machines — is the bottleneck the extra replicas relieve.
var (
	fedFull = fedSetting{
		loadSetting: loadSetting{machines: 8, machineSize: 32, sites: 2, procsPerSite: 4, spares: 1,
			workers: 1, workTime: 2 * time.Minute, requests: 40, tenants: 3},
		replicaCounts: []int{1, 2, 4, 8},
	}
	fedSmoke = fedSetting{
		loadSetting: loadSetting{machines: 8, machineSize: 32, sites: 2, procsPerSite: 4, spares: 1,
			workers: 1, workTime: 2 * time.Minute, requests: 40, tenants: 3},
		replicaCounts: []int{1, 2},
	}
)

const (
	// fedQueueBound is each replica's admission bound.
	fedQueueBound = 4
	// fedRatePerMin is the Poisson arrival rate offered to the whole group.
	fedRatePerMin = 10
	// fedOutage is how long the crashed replica stays down. Rows with two
	// or more replicas crash the initial leader a third of the way into the
	// arrival schedule; the single-replica row runs crash-free (killing
	// the only broker would measure the outage, not the scaling).
	fedOutage = 90 * time.Second
)

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
	ThroughputPerMin float64              `json:"throughput_per_min"`
	P50              time.Duration        `json:"p50"`
	P99              time.Duration        `json:"p99"`
	Violations       []workload.Violation `json:"violations,omitempty"`
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
func FederationLoadStudy(seed int64, smoke bool) FederationLoadResult {
	s := setting(smoke, fedFull, fedSmoke)
	res := FederationLoadResult{
		Machines:     s.machines,
		MachineSize:  s.machineSize,
		Workers:      s.workers,
		Sites:        s.sites,
		ProcsPerSite: s.procsPerSite,
		RatePerMin:   fedRatePerMin,
	}
	for _, n := range s.replicaCounts {
		row, _ := fedRun(s.loadSetting, stockSeed(seed), n)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Check is the study's acceptance gate: every row's audit is clean, and at
// least one multi-replica row sustains higher admitted throughput than the
// single-replica row at no worse p99 — even though the multi-replica rows
// also absorb a leader crash mid-run. A sweep without a single-replica row
// has nothing to beat. Returns one message per violation.
func (r FederationLoadResult) Check() []string {
	var bad []string
	var base *FederationLoadRow
	for i, row := range r.Rows {
		bad = append(bad, workload.Gate(fmt.Sprintf("%d replicas", row.Replicas), row.Violations)...)
		if row.Replicas == 1 {
			base = &r.Rows[i]
		}
	}
	if base == nil {
		return bad
	}
	for _, row := range r.Rows {
		if row.Replicas > 1 && row.ThroughputPerMin > base.ThroughputPerMin && row.P99 <= base.P99 {
			return bad
		}
	}
	return append(bad, fmt.Sprintf("no multi-replica row beat the single-replica baseline (%.2f/min, p99 %v)",
		base.ThroughputPerMin, base.P99))
}

// FederationLoadRun executes one row of the study at the given size: its
// requests arrive Poisson, offered round-robin to an n-replica federation,
// with the initial leader crashed and restarted mid-run when n >= 2. The
// returned grid carries the run's full metric registries; two runs with the
// same arguments produce byte-identical Prometheus expositions, which
// TestFederationLoadDeterminism locks in.
func FederationLoadRun(seed int64, smoke bool, n int) (FederationLoadRow, *grid.Grid) {
	return fedRun(setting(smoke, fedFull, fedSmoke).loadSetting, stockSeed(seed), n)
}

// fedRun executes one row on s.
func fedRun(s loadSetting, seed int64, n int) (FederationLoadRow, *grid.Grid) {
	seed += int64(n) * 1009
	tb := s.testbed(seed, n, fedQueueBound, 15*time.Second)
	g := tb.Grid
	load := workload.Load{
		Hosts:    clientHosts(s.requests),
		Arrivals: poisson(rand.New(rand.NewSource(seed)), s.requests, fedRatePerMin),
		// Let committed jobs run out; the testbed then gives the peer reaper
		// time to drain any journal entries the crash handed off.
		Drain: s.workTime + time.Minute,
	}
	if n >= 2 {
		// Kill the initial leader (the highest id wins the first
		// election) a third of the way into the arrival schedule: the
		// survivors elect a new leader, the dead replica's shard hands
		// off, its journal entries are adopted, and its clients fail
		// over — the full failure mode the federation exists to mask.
		load.Faults = []workload.Fault{{
			Kind:   "broker-crash",
			Target: tb.Fed.Replica(n - 1).Name(),
			At:     load.Arrivals[len(load.Arrivals)/3],
			Dur:    fedOutage,
		}}
	}

	row := FederationLoadRow{Replicas: n, Requests: s.requests}
	var mu sync.Mutex
	t, violations := run(tb, load, nil, func(i, _ int, host *transport.Host) bool {
		// Keyed, so the client's walk of the ring is safe; a dead target
		// costs the dial timeout — that tail is part of what is measured.
		req := s.request(i)
		req.Key = fmt.Sprintf("req%03d", i)
		reply, _, failovers, err := workload.Submit(host, tb.Ring, i%n, host.Name(), req, 0, 50, nil)
		mu.Lock()
		row.Failovers += failovers
		mu.Unlock()
		return err == nil && reply.OK()
	})
	row.Completed, row.Failed = t.Completed, t.Failed
	row.P50, row.P99, row.ThroughputPerMin = t.P50, t.P99, t.ThroughputPerMin
	row.Violations = violations
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
