package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cogrid/internal/agent"
	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/failure"
	"cogrid/internal/federation"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mds"
	"cogrid/internal/metrics"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// workload is one named set of inputs. run builds the testbed from seed,
// drives it to quiescence and fills a round; scale < 1 shrinks the
// operation count for the in-process smoke test only.
type workload struct {
	name     string
	why      string
	observed bool    // the grid's tracing is on in every round, not only the traced run's
	ceiling  float64 // failed/ops the correctness gate tolerates
	run      func(r *round, seed int64, scale float64)
}

var workloads = []workload{
	{"duroc_wide", "closed loop of 8x8-process DUROC co-allocations: core/gram/gsi/nis/rsl/rpc/wire/transport and lrm-fork do the work; broker, mds, federation and trace do none", false, 0, runDurocWide},
	{"broker_open", "open-loop Poisson requests through one broker, untraced: broker/mds/agent selection and lrm-batch on the happy path", false, 0, runBrokerOpen},
	{"broker_open_obs", "broker_open's inputs with tracing, metrics and flight recorder on and exported: the gap to broker_open is the observability cost", true, 0, runBrokerOpen},
	{"fed_chaos", "3-replica federation under a fault every 15 virtual s and a leader crash: the same layers on their error paths", true, 0.03, runFedChaos},
	{"kernel_scale", "50 000 batch jobs raw on vtime+lrm with no protocol layer: a kernel change shows here first, a protocol change predicts no change", false, 0, runKernelScale},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// round is what one simulation of one workload reports. The host-clock
// fields differ run to run; everything else must repeat exactly for a
// fixed seed.
type round struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`

	// Host clock. The timed window opens when the first op is issued
	// and closes at quiescence (after the exports on traced workloads).
	SetupNs    int64  `json:"setup_ns"` // spawn -> first op
	WallNs     int64  `json:"wall_ns"`
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	PeakRSSKB  int64  `json:"-"` // the child's ru_maxrss, filled in by the parent

	// Virtual clock and correctness.
	Ops       int     `json:"ops"`
	Failed    int     `json:"failed"`
	Samples   int     `json:"samples"`
	P50Ms     float64 `json:"vt_p50_ms"`
	P95Ms     float64 `json:"vt_p95_ms"`
	Goodput   float64 `json:"vt_goodput_per_min"`
	LateNs    int64   `json:"late_ns"` // worst generator lateness; must be 0
	Timers    int64   `json:"timers"`
	Msgs      int64   `json:"msgs"`
	Bytes     int64   `json:"bytes"`
	Undrained int     `json:"undrained"` // machines with live jobs or busy processors

	// Traced rounds only.
	Counters    map[string]int64   `json:"counters,omitempty"` // scope suffix summed away
	Events      int                `json:"events,omitempty"`
	PathMs      map[string]float64 `json:"path_ms,omitempty"` // critical-path virtual ms by trace category, summed over requests
	PathLatMs   float64            `json:"path_lat_ms,omitempty"`
	QueueWaitMs float64            `json:"queue_wait_ms,omitempty"` // lrm.queue.wait, summed over jobs
	Problems    []string           `json:"problems,omitempty"`

	spawned time.Time // when the parent started this process
	spans   *spanLog
	start   time.Time
	m0      runtime.MemStats
	mu      sync.Mutex
	lat     []time.Duration
	first   time.Duration // first arrival
	last    time.Duration // last commit
}

// begin opens the timed window; the driver calls it at the instant the
// first op is issued.
func (r *round) begin() {
	r.start = time.Now()
	r.SetupNs = r.start.Sub(r.spawned).Nanoseconds()
	runtime.ReadMemStats(&r.m0)
}

// end closes the timed window.
func (r *round) end() {
	r.WallNs = time.Since(r.start).Nanoseconds()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.Mallocs = m1.Mallocs - r.m0.Mallocs
	r.AllocBytes = m1.TotalAlloc - r.m0.TotalAlloc
}

// issued asserts the open-loop generator ran on time: virtual-time
// generators cannot be late, and the benchmark checks that they are not.
func (r *round) issued(sim *vtime.Sim, due time.Duration) {
	if late := int64(sim.Now() - due); late > r.LateNs {
		r.LateNs = late
	}
}

// record books one op: its latency from the instant it was due, or its
// whole client budget when it failed or was refused.
func (r *round) record(ok bool, due, done, budget time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Ops++
	if !ok {
		r.Failed++
		r.lat = append(r.lat, budget)
		return
	}
	r.lat = append(r.lat, done-due)
	if done > r.last {
		r.last = done
	}
}

// summarize folds the latency sample into the virtual-clock metrics.
func (r *round) summarize() {
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	r.Samples = len(r.lat)
	r.P50Ms = ms(rank(r.lat, 0.50))
	r.P95Ms = ms(rank(r.lat, 0.95))
	if span := r.last - r.first; span > 0 {
		r.Goodput = float64(r.Ops-r.Failed) / span.Minutes()
	}
}

// rank returns the nearest-rank p-quantile of a sorted sample.
func rank(sorted []time.Duration, p float64) time.Duration {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// siteLatency is the seeded network: each named host sits a seeded
// distance from the backbone and a message pays both ends' distances, so
// the virtual-clock results depend on the seed as a real testbed's do on
// its topology. Unnamed hosts sit at the paper's 0.5 ms (1 ms one way).
type siteLatency map[string]time.Duration

func (l siteLatency) Latency(from, to string) time.Duration {
	if from == to {
		return 0
	}
	return l.dist(from) + l.dist(to)
}

func (l siteLatency) dist(h string) time.Duration {
	if d, ok := l[h]; ok {
		return d
	}
	return 500 * time.Microsecond
}

// machineNames names n machines and draws each one's distance in
// [0.4, 0.6) ms.
func machineNames(rng *rand.Rand, n int) ([]string, siteLatency) {
	names := make([]string, n)
	lat := siteLatency{}
	for i := range names {
		names[i] = fmt.Sprintf("site%02d", i)
		lat[names[i]] = 400*time.Microsecond + time.Duration(rng.Int63n(int64(200*time.Microsecond)))
	}
	return names, lat
}

// poisson pre-draws the n arrival instants of a Poisson process of
// ratePerMin, conditioned on exactly n arrivals falling in its window of
// n/rate minutes: sorted uniform draws. The offered load is then the same
// on every seed and only its burstiness varies. The window opens after a
// 10 s virtual warm-up (MDS publishes, cache fill, election).
func poisson(rng *rand.Rand, n int, ratePerMin float64) []time.Duration {
	window := float64(n) / ratePerMin * float64(time.Minute)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = 10*time.Second + time.Duration(rng.Float64()*window)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// barrierApp is the co-allocated application: attach, pass the DUROC
// barrier, hold the processors for work.
func barrierApp(work time.Duration) lrm.ExecFunc {
	return func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.Barrier(true, "", 24*time.Hour); err != nil {
			return nil // aborted before commit
		}
		return p.Work(work, time.Second)
	}
}

func scaled(n int, scale float64) int { return max(int(float64(n)*scale), 1) }

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// finish closes the timed window — after the exports where the grid is
// traced, because the observability cost includes getting the data out —
// then reads the grid's public counters into the round and, on traced
// grids, runs the causal analysis.
func (r *round) finish(g *grid.Grid) {
	if g.Tracer != nil {
		sp := r.spans.begin("Tracer.WriteJSONL", "", -1)
		must(g.Tracer.WriteJSONL(io.Discard))
		r.spans.end(sp)
		sp = r.spans.begin("Grid.WriteMetrics", "", -1)
		must(g.WriteMetrics(io.Discard))
		r.spans.end(sp)
	}
	r.end()
	r.Timers = g.Sim.TimersFired()
	r.Msgs, r.Bytes = g.Net.Messages(), g.Net.Bytes()
	var jobs int64
	for _, name := range g.Machines() {
		m := g.Machine(name)
		if m.LiveJobs() != 0 || m.FreeProcessors() != m.Processors() {
			r.Undrained++
		}
		st := m.Stats()
		jobs += st.Done + st.Failed
	}
	r.summarize()
	if g.Tracer == nil {
		return
	}
	r.Counters = map[string]int64{"lrm.jobs": jobs}
	for _, cv := range g.Counters.Snapshot() {
		name, _, _ := strings.Cut(cv.Name, "@")
		r.Counters[name] += cv.Value
	}
	r.QueueWaitMs = float64(g.Hists.H("lrm.queue.wait").Sum()) / 1e6
	events := g.Tracer.Events()
	r.Events = len(events)
	// Two counts no counter carries are taken from the event names.
	for _, ev := range events {
		if ev.Cat == "rpc" && ev.Name == "call:cancel" || ev.Cat == "broker" && ev.Name == "attempt" {
			r.Counters["event:"+ev.Cat+" "+ev.Name]++
		}
	}
	sp := r.spans.begin("trace.Analyze", "", -1)
	a := trace.Analyze(events)
	r.spans.end(sp)
	r.Problems = a.Check()
	r.PathMs = map[string]float64{}
	for _, t := range a.RequestTrees() {
		ws, we := t.Root.Window()
		r.PathLatMs += ms(we - ws)
		for _, seg := range t.CriticalPath() {
			r.PathMs[seg.Node.Cat] += ms(seg.Dur())
		}
	}
}

// --- duroc_wide -------------------------------------------------------

func runDurocWide(r *round, seed int64, scale float64) {
	const (
		machines, machineSize = 16, 64
		clients, subjobs      = 4, 8
		procs                 = 8
		budget                = 2 * time.Minute
	)
	perClient := scaled(50, scale)
	rng := rand.New(rand.NewSource(seed))
	names, lat := machineNames(rng, machines)
	// Pre-draw every request's 8 of 16 machines.
	picks := make([][][]int, clients)
	for c := range picks {
		picks[c] = make([][]int, perClient)
		for k := range picks[c] {
			picks[c][k] = rng.Perm(machines)[:subjobs]
		}
	}

	sp := r.spans.begin("grid.New", "", -1)
	g := grid.New(grid.Options{Seed: seed, LatencyModel: lat, Trace: r.Traced})
	r.spans.end(sp)
	for _, name := range names {
		sp := r.spans.begin("grid.AddMachine", "", -1)
		g.AddMachine(name, machineSize, lrm.Fork)
		r.spans.end(sp)
	}
	g.RegisterEverywhere("app", barrierApp(5*time.Second))
	ctrls := make([]*core.Controller, clients)
	for c := range ctrls {
		sp := r.spans.begin("core.NewController", "", -1)
		ctrl, err := core.NewController(g.Net.AddHost(fmt.Sprintf("client%d", c)), core.ControllerConfig{
			Credential: g.UserCred,
			Registry:   g.Registry,
		})
		r.spans.end(sp)
		must(err)
		ctrls[c] = ctrl
	}

	start := 10 * time.Second
	r.first = start
	must(g.Sim.Run("driver", func() {
		wg := vtime.NewWaitGroup(g.Sim)
		wg.Add(clients)
		for c := 0; c < clients; c++ {
			c := c
			g.Sim.GoDaemon(fmt.Sprintf("client%d", c), func() {
				defer wg.Done()
				// Stagger starts so no two clients share an instant.
				g.Sim.SleepUntil(start + time.Duration(c)*17*time.Millisecond)
				if c == 0 {
					r.begin()
				}
				for k := 0; k < perClient; k++ {
					var req core.Request
					for _, m := range picks[c][k] {
						req.Subjobs = append(req.Subjobs, core.SubjobSpec{
							Contact: g.Contact(names[m]), Count: procs, Executable: "app",
						})
					}
					id := fmt.Sprintf("client%d/r%d", c, k)
					due := g.Sim.Now()
					op := r.spans.begin("op", id, -1)
					sp := r.spans.begin("agent.Atomic", id, op)
					res, err := agent.Atomic(ctrls[c], req, budget)
					r.spans.end(sp)
					done := g.Sim.Now()
					r.record(err == nil, due, done, budget)
					if res.Job != nil {
						g.Tracer.SpanAtCtx(trace.NewRequest(res.Job.ID()), "client", "request", ctrls[c].Contact().Host, "", "", due, done)
						sp := r.spans.begin("Job.Done.Wait", id, op)
						res.Job.Done().Wait()
						r.spans.end(sp)
					}
					r.spans.end(op)
				}
			})
		}
		wg.Wait()
		g.Sim.Sleep(time.Minute) // let the last state callbacks land
	}))
	r.finish(g)
}

// --- broker_open / broker_open_obs -------------------------------------

// brokerTestbed assembles a directory, n publishing batch machines, the
// application, and returns the grid and directory address.
func brokerTestbed(r *round, seed int64, lat siteLatency, names []string, work time.Duration) (*grid.Grid, transport.Addr) {
	sp := r.spans.begin("grid.New", "", -1)
	g := grid.New(grid.Options{Seed: seed, LatencyModel: lat, Trace: r.Traced})
	r.spans.end(sp)
	sp = r.spans.begin("mds.NewServer", "", -1)
	_, err := mds.NewServer(g.Net.AddHost("mds0"), 0)
	r.spans.end(sp)
	must(err)
	dir := transport.Addr{Host: "mds0", Service: mds.ServiceName}
	for _, name := range names {
		sp := r.spans.begin("grid.AddMachine", "", -1)
		m := g.AddMachine(name, 32, lrm.Batch)
		r.spans.end(sp)
		sp = r.spans.begin("mds.Publish", "", -1)
		mds.Publish(m, dir, g.Contact(name), 31*time.Second, 8, 32)
		r.spans.end(sp)
	}
	g.RegisterEverywhere("app", barrierApp(work))
	return g, dir
}

func brokerOptions(dir transport.Addr, workers int) broker.Options {
	return broker.Options{
		Directory:       dir,
		QueueBound:      16,
		Workers:         workers,
		CacheMaxAge:     45 * time.Second,
		RefreshInterval: 40 * time.Second,
		RetryAfter:      20 * time.Second,
	}
}

// openLoop issues op(i) from a process of its own at arrivals[i], opening
// the timed window with the first, and returns once every op has.
func (r *round) openLoop(sim *vtime.Sim, arrivals []time.Duration, op func(i int)) {
	r.first = arrivals[0]
	wg := vtime.NewWaitGroup(sim)
	wg.Add(len(arrivals))
	for i := range arrivals {
		i := i
		sim.GoDaemon(fmt.Sprintf("client%03d", i), func() {
			defer wg.Done()
			sim.SleepUntil(arrivals[i])
			if i == 0 {
				r.begin()
			}
			r.issued(sim, arrivals[i])
			op(i)
		})
	}
	wg.Wait()
}

// submit is one client's brokered request, due now, within budget. It
// walks the ring of broker contacts from home until one answers (a lone
// broker is a ring of one); a federation's idempotency key makes the
// walk safe.
func (r *round) submit(g *grid.Grid, host *transport.Host, ring []transport.Addr, home int, req broker.Request, budget time.Duration) {
	id := host.Name()
	ctx := trace.NewRequest(id)
	due := g.Sim.Now()
	deadline := due + budget
	op := r.spans.begin("op", id, -1)
	ok := false
	for k := 0; k < len(ring) && g.Sim.Now() < deadline; k++ {
		sp := r.spans.begin("broker.Dial", id, op)
		c, err := broker.DialCtx(host, ring[(home+k)%len(ring)], ctx)
		r.spans.end(sp)
		if err != nil {
			continue
		}
		sp = r.spans.begin("Client.SubmitWait", id, op)
		reply, _, err := c.SubmitWait(req, deadline-g.Sim.Now(), 50)
		r.spans.end(sp)
		c.Close()
		if err == nil {
			ok = reply.OK()
			break
		}
	}
	done := g.Sim.Now()
	g.Tracer.SpanAtCtx(ctx, "client", "request", id, "", "", due, done)
	r.record(ok, due, done, budget)
	r.spans.end(op)
}

// clientHosts gives each of n open-loop requests a host of its own.
func clientHosts(g *grid.Grid, n int) []*transport.Host {
	hosts := make([]*transport.Host, n)
	for i := range hosts {
		hosts[i] = g.Net.AddHost(fmt.Sprintf("client%03d", i))
	}
	return hosts
}

func runBrokerOpen(r *round, seed int64, scale float64) {
	const (
		machines = 24
		tenants  = 3
		work     = 30 * time.Second
		budget   = 10 * time.Minute
	)
	n := scaled(400, scale)
	rng := rand.New(rand.NewSource(seed))
	names, lat := machineNames(rng, machines)
	arrivals := poisson(rng, n, 6)

	g, dir := brokerTestbed(r, seed, lat, names, work)
	sp := r.spans.begin("broker.New", "", -1)
	b, err := broker.New(g.Net.AddHost("broker0"), core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	}, brokerOptions(dir, 4))
	r.spans.end(sp)
	must(err)
	hosts := clientHosts(g, n)
	ring := []transport.Addr{b.Contact()}

	must(g.Sim.Run("driver", func() {
		r.openLoop(g.Sim, arrivals, func(i int) {
			r.submit(g, hosts[i], ring, 0, broker.Request{
				Tenant:       fmt.Sprintf("tenant%d", i%tenants),
				Sites:        2,
				ProcsPerSite: 8,
				Executable:   "app",
				Spares:       1,
			}, budget)
		})
		g.Sim.Sleep(work + time.Minute) // committed jobs run out, callbacks land
	}))
	r.finish(g)
}

// --- fed_chaos ---------------------------------------------------------

func runFedChaos(r *round, seed int64, scale float64) {
	const (
		machines, replicas = 16, 3
		tenants            = 3
		work               = 30 * time.Second
		budget             = 10 * time.Minute
		maxTime            = 4 * time.Minute
		faultEvery         = 15 * time.Second
		faultFor           = 45 * time.Second
		outage             = 90 * time.Second
	)
	n := scaled(240, scale)
	rng := rand.New(rand.NewSource(seed))
	names, lat := machineNames(rng, machines)
	arrivals := poisson(rng, n, 6)

	// One fault every 15 virtual seconds, cycling hang -> slow x25 -> RM
	// down -> crash+restart. Machine (7f mod 16) is revisited every 240 s,
	// long after its 45 s fault healed: RestartMachine panics on a live
	// host, so no machine may carry two faults.
	var plan failure.Plan
	for f := 0; ; f++ {
		at := arrivals[0] + time.Duration(f)*faultEvery
		if at > arrivals[n-1] {
			break
		}
		m := names[(7*f)%machines]
		switch f % 4 {
		case 0:
			plan = append(plan, failure.Action{At: at, Kind: failure.HostHang, Target: m},
				failure.Action{At: at + faultFor, Kind: failure.HostRestore, Target: m})
		case 1:
			plan = append(plan, failure.Action{At: at, Kind: failure.MachineSlow, Target: m, Factor: 25},
				failure.Action{At: at + faultFor, Kind: failure.MachineSlow, Target: m, Factor: 1})
		case 2:
			plan = append(plan, failure.Action{At: at, Kind: failure.MachineDown, Target: m},
				failure.Action{At: at + faultFor, Kind: failure.MachineUp, Target: m})
		case 3:
			plan = append(plan, failure.Action{At: at, Kind: failure.HostCrash, Target: m},
				failure.Action{At: at + faultFor, Kind: failure.MachineRestart, Target: m})
		}
	}
	plan = plan.Sorted()
	healBy := plan[len(plan)-1].At

	g, dir := brokerTestbed(r, seed, lat, names, work)
	sp := r.spans.begin("federation.New", "", -1)
	fed, err := federation.New(g.Net, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	}, federation.Options{Replicas: replicas, Directory: dir, Broker: brokerOptions(dir, 2)})
	r.spans.end(sp)
	must(err)
	hosts := clientHosts(g, n)
	ring := make([]transport.Addr, replicas)
	for k := range ring {
		ring[k] = fed.Replica(k).BrokerContact()
	}

	must(g.Sim.Run("driver", func() {
		plan.Apply(g)
		leader := fed.Replica(replicas - 1) // the highest id wins the first election
		g.Sim.GoDaemon("leader-crash", func() {
			g.Sim.SleepUntil(arrivals[n/3])
			leader.Crash()
			g.Sim.Sleep(outage)
			must(leader.Restart())
		})
		r.openLoop(g.Sim, arrivals, func(i int) {
			r.submit(g, hosts[i], ring, i, broker.Request{
				Tenant:         fmt.Sprintf("tenant%d", i%tenants),
				Sites:          2,
				ProcsPerSite:   8,
				Executable:     "app",
				Spares:         2,
				CommitTimeout:  3 * time.Minute,
				StartupTimeout: 2 * time.Minute,
				MaxTime:        maxTime,
				Key:            fmt.Sprintf("req%03d", i),
			}, budget)
		})
		// Quiesce: every fault healed, every committed or detached job run
		// out (work, or the maxTime wall limit), and the reapers have seen
		// the healed grid.
		if g.Sim.Now() < healBy {
			g.Sim.SleepUntil(healBy)
		}
		g.Sim.Sleep(maxTime + work + 2*time.Minute + 3*fed.Options().PeerReapInterval)
	}))
	r.finish(g)
}

// --- kernel_scale ------------------------------------------------------

func runKernelScale(r *round, seed int64, scale float64) {
	const (
		machines, machineSize  = 500, 32
		maxProcs               = 4
		minRuntime, maxRuntime = 30 * time.Second, 10 * time.Minute
		interarrival           = 2 * time.Millisecond
	)
	jobs := scaled(50_000, scale)
	// The whole job stream is drawn up front: the run itself is RNG-free.
	rng := rand.New(rand.NewSource(seed))
	specs := make([]lrm.JobSpec, jobs)
	due := make([]time.Duration, jobs)
	for i := range specs {
		d := minRuntime + time.Duration(rng.Int63n(int64(maxRuntime-minRuntime)))
		specs[i] = lrm.JobSpec{
			Executable: "work",
			Count:      1 + rng.Intn(maxProcs),
			Env:        map[string]string{"runtime": d.String(), "job": strconv.Itoa(i)},
			TimeLimit:  2 * d,
		}
		if i > 0 {
			due[i] = due[i-1] + time.Duration(rng.ExpFloat64()*float64(interarrival))
		}
	}

	sim := vtime.NewSeeded(seed)
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	hists := metrics.NewHistogramSet()
	net.SetHists(hists)
	// An op's latency runs from its arrival to its application code
	// running (its commit): queue wait plus process start-up. The
	// executable stamps the instant itself, so the numbers are exact.
	launched := make([]time.Duration, jobs)
	work := func(p *lrm.Proc) error {
		i, err := strconv.Atoi(p.Env["job"])
		if err != nil {
			return err
		}
		d, err := time.ParseDuration(p.Env["runtime"])
		if err != nil {
			return err
		}
		r.mu.Lock()
		if launched[i] == 0 {
			launched[i] = p.Sim().Now()
		}
		r.mu.Unlock()
		return p.Work(d, time.Hour)
	}
	fleet := make([]*lrm.Machine, machines)
	for i := range fleet {
		fleet[i] = lrm.NewMachine(net.AddHost(fmt.Sprintf("m%05d", i)), machineSize, lrm.Config{
			Mode:           lrm.Batch,
			Costs:          lrm.Costs{Fork: time.Millisecond, ProcStartup: time.Second},
			RetireTerminal: true,
		})
		fleet[i].RegisterExecutable("work", work)
	}

	// Arrivals are a chained passive timer: each firing submits one job
	// and schedules the next, so the stream rides the kernel under test.
	var arrive func(i int)
	arrive = func(i int) {
		r.issued(sim, due[i])
		sp := r.spans.begin("Machine.Submit", "", -1)
		_, err := fleet[i%machines].Submit(specs[i])
		r.spans.end(sp)
		must(err) // machines fit every draw and are never down
		if next := i + 1; next < jobs {
			sim.AfterFuncPassive(due[next]-due[i], func() { arrive(next) })
		}
	}
	var done, failed int64
	must(sim.Run("driver", func() {
		r.begin()
		arrive(0)
		for done+failed < int64(jobs) {
			sim.Sleep(10 * time.Second)
			done, failed = 0, 0
			for _, m := range fleet {
				st := m.Stats()
				done += st.Done
				failed += st.Failed
			}
		}
	}))
	r.end()

	r.Timers = sim.TimersFired()
	for _, m := range fleet {
		if m.LiveJobs() != 0 || m.FreeProcessors() != m.Processors() {
			r.Undrained++
		}
	}
	for i, at := range launched {
		r.record(at != 0, due[i], at, specs[i].TimeLimit)
	}
	r.Failed = int(failed)
	r.summarize()
	r.QueueWaitMs = float64(hists.H("lrm.queue.wait").Sum()) / 1e6
	if r.Traced {
		r.Counters = map[string]int64{"lrm.jobs": done + failed}
	}
}
