package workload

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/federation"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mds"
	"cogrid/internal/metrics"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// Machine is one GRAM-fronted machine of a testbed.
type Machine struct {
	Name  string
	Procs int
	Mode  lrm.Mode
}

// BatchSites lists n batch machines of procs processors, site00 upwards.
func BatchSites(n, procs int) []Machine {
	sites := make([]Machine, n)
	for i := range sites {
		sites[i] = Machine{Name: fmt.Sprintf("site%02d", i), Procs: procs, Mode: lrm.Batch}
	}
	return sites
}

// Spec describes a testbed as data. What the studies, the DST harness and
// the gridsim demos set differently is a field here, never a second way of
// assembling the grid.
type Spec struct {
	Seed     int64
	Machines []Machine
	// Counts are the per-site process counts requests will ask for: every
	// machine publishes its forecast wait for each, and for its own size.
	Counts []int
	// WorkTime is how long the application computes past the barrier;
	// BarrierTimeout bounds its wait there (0: core.DefaultBarrierTimeout).
	WorkTime, BarrierTimeout time.Duration
	// Broker configures broker0, or each replica; its Directory is filled
	// in. Nil leaves the grid unbrokered: machines and application, no
	// directory.
	Broker *broker.Options
	// Replicas sizes the federation; 0 is a lone broker0.
	Replicas int
	// Bugs is injected into the brokers' controllers (DST's self-test).
	Bugs core.Bugs
}

// Testbed is an assembled grid and, when brokered, the way in: Ring holds
// the broker contacts in replica order (a lone broker is a ring of one).
type Testbed struct {
	Grid   *grid.Grid
	Ring   []transport.Addr
	Broker *broker.Broker         // the lone broker; nil when federated
	Fed    *federation.Federation // nil unless Spec.Replicas > 0
	// bugs is Spec.Bugs, and faulted whether Schedule set a fault going:
	// without either, Audit owes the SLO plane silence.
	bugs    core.Bugs
	faulted bool
}

// NewTestbed assembles the grid every brokered run uses: traced, a
// directory on mds0, the machines publishing their load to it every 31 s,
// the barrier application as "app", and broker0 or a federation.
func NewTestbed(spec Spec) *Testbed {
	g := grid.New(grid.Options{Seed: spec.Seed, Trace: true})
	tb := &Testbed{Grid: g, bugs: spec.Bugs}
	var dir transport.Addr
	if spec.Broker != nil {
		if _, err := mds.NewServer(g.Net.AddHost("mds0"), 0); err != nil {
			panic(err) // fresh host: cannot fail
		}
		dir = transport.Addr{Host: "mds0", Service: mds.ServiceName}
	}
	for _, m := range spec.Machines {
		machine := g.AddMachine(m.Name, m.Procs, m.Mode)
		if spec.Broker != nil {
			mds.Publish(machine, dir, g.Contact(m.Name), 31*time.Second, publishCounts(spec.Counts, m.Procs)...)
		}
	}
	g.RegisterEverywhere("app", App(spec.WorkTime, spec.BarrierTimeout))
	if spec.Broker == nil {
		return tb
	}
	ctrl := core.ControllerConfig{Credential: g.UserCred, Registry: g.Registry, Bugs: spec.Bugs}
	opts := *spec.Broker
	opts.Directory = dir
	if spec.Replicas == 0 {
		b, err := broker.New(g.Net.AddHost("broker0"), ctrl, opts)
		if err != nil {
			panic(err) // fresh host: cannot fail
		}
		tb.Broker, tb.Ring = b, []transport.Addr{b.Contact()}
		return tb
	}
	fed, err := federation.New(g.Net, ctrl, federation.Options{Replicas: spec.Replicas, Directory: dir, Broker: opts})
	if err != nil {
		panic(err) // fresh hosts: cannot fail
	}
	tb.Fed = fed
	for _, r := range fed.Replicas() {
		tb.Ring = append(tb.Ring, r.BrokerContact())
	}
	return tb
}

// publishCounts is what a machine of procs processors forecasts waits for:
// the request sizes and its own, each once, ascending.
func publishCounts(counts []int, procs int) []int {
	seen := map[int]bool{procs: true}
	out := []int{procs}
	for _, n := range counts {
		if n > 0 && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

// App is the instrumented application: attach to the DUROC runtime, report
// successful startup, pass the barrier within barrierTimeout (batch queues
// legitimately keep processes waiting for hours; 0 is the runtime's
// default), compute for workTime, exit.
func App(workTime, barrierTimeout time.Duration) lrm.ExecFunc {
	return func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.Barrier(true, "", barrierTimeout); err != nil {
			return nil // aborted: exit before irreversible initialization
		}
		if workTime > 0 {
			return p.Work(workTime, time.Second)
		}
		return nil
	}
}

// Submit is one client's brokered request, rooting the causal tree id:
// every hop, RPC, broker decision and DUROC 2PC leg it causes parents
// beneath one client/request span whose window is the client-observed
// issue-to-reply latency — recorded on every outcome, a failed dial and an
// unanswered walk included. Starting from ring[home] it walks the ring
// until a replica answers; a dead target costs the dial timeout before the
// client moves on. A federation's idempotency key makes the walk safe: a
// replica that committed but died before replying leaves the retried key
// to be answered from the replicated journal, not allocated twice. Each
// SubmitWait gets budget and absorbs up to maxRejects admission rejects.
// onHop, when set, sees every hop that failed: its position in the walk,
// whether the dial had succeeded, and the error.
//
// It returns the reply, the rejects absorbed, how many failovers the walk
// took, and the last hop's error if no replica answered.
func Submit(host *transport.Host, ring []transport.Addr, home int, id string, req broker.Request,
	budget time.Duration, maxRejects int, onHop func(k int, dialed bool, err error)) (reply broker.Reply, rejects, failovers int, err error) {
	ctx := trace.NewRequest(id)
	sim := host.Network().Sim()
	start := sim.Now()
	defer func() {
		host.Network().Tracer().SpanAtCtx(ctx, "client", "request", host.Name(), req.Tenant, "", start, sim.Now())
	}()
	for k := range ring {
		var c *broker.Client
		c, err = broker.DialCtx(host, ring[(home+k)%len(ring)], ctx)
		dialed := err == nil
		if dialed {
			var n int
			reply, n, err = c.SubmitWait(req, budget, maxRejects)
			c.Close()
			rejects += n
			if err == nil {
				return reply, rejects, failovers, nil
			}
		}
		failovers++
		if onHop != nil {
			onHop(k, dialed, err)
		}
	}
	return broker.Reply{}, rejects, failovers, err
}

// Load is the request stream one run offers, open or closed loop: client i
// sleeps until Arrivals[i] and then issues PerClient requests back to back.
type Load struct {
	// Hosts names the clients' hosts, one per client. A run whose clients
	// need none leaves it nil, and op gets a nil host.
	Hosts []string
	// Arrivals is the schedule — Poisson and pre-drawn, a scenario's, or
	// fixed — so the run itself is RNG-free.
	Arrivals []time.Duration
	// PerClient above 1 closes the loop: each client resubmits the instant
	// its previous request finishes.
	PerClient int
	// Faults are injected into the run (see Fault), scheduled first thing
	// inside the driver process; a list Schedule refuses is Run's error.
	Faults []Fault
	// Before, when set, runs inside the driver process once the faults are
	// scheduled: background load, narration.
	Before func()
	// Drain is how long after the last fault has healed and the last reply
	// arrived the committed and the detached jobs need to run out: the work
	// time plus any wall-time limit, plus a margin for final callbacks and
	// two of the controllers' orphan sweeps.
	Drain time.Duration
}

// Tally is what the clients of one run observed.
type Tally struct {
	Completed, Failed int
	// P50 and P99 are the completed requests' issue-to-reply latencies.
	P50, P99 time.Duration
	// ThroughputPerMin is completions per virtual minute from the first
	// arrival to the last completed reply.
	ThroughputPerMin float64
}

// Run plays load to the end of the simulation: op(i, k, host) is client
// i's k-th request and reports whether it committed. Once every client has
// its answers the grid quiesces before Run returns — until the last fault
// has healed, then Drain, then three peer-reap intervals when federated so
// handed-off journal entries settle: ending at the instant the last reply
// arrives would race shutdown against in-flight callback delivery and make
// counter totals depend on goroutine interleaving. The error is the fault
// list's or the kernel's (a deadlock).
func (tb *Testbed) Run(load Load, op func(i, k int, host *transport.Host) bool) (Tally, error) {
	sim := tb.Grid.Sim
	hosts := make([]*transport.Host, len(load.Arrivals))
	for i, name := range load.Hosts {
		hosts[i] = tb.Grid.Net.AddHost(name)
	}
	var (
		mu        sync.Mutex
		t         Tally
		latencies []float64 // seconds, completed requests only
		lastDone  time.Duration
		faultErr  error
	)
	err := sim.Run("driver", func() {
		var healBy time.Duration
		if healBy, faultErr = tb.Schedule(load.Faults); faultErr != nil {
			return
		}
		if load.Before != nil {
			load.Before()
		}
		wg := vtime.NewWaitGroup(sim)
		wg.Add(len(load.Arrivals))
		for i, at := range load.Arrivals {
			sim.GoDaemon(fmt.Sprintf("client%03d", i), func() {
				defer wg.Done()
				sim.SleepUntil(at)
				for k := 0; k < max(load.PerClient, 1); k++ {
					issued := sim.Now()
					ok := op(i, k, hosts[i])
					done := sim.Now()
					mu.Lock()
					if ok {
						t.Completed++
						latencies = append(latencies, (done - issued).Seconds())
						lastDone = max(lastDone, done)
					} else {
						t.Failed++
					}
					mu.Unlock()
				}
			})
		}
		wg.Wait()
		sim.SleepUntil(healBy)
		sim.Sleep(load.Drain)
		if fed := tb.Fed; fed != nil {
			sim.Sleep(3 * fed.Options().PeerReapInterval)
		}
	})
	if faultErr != nil {
		return Tally{}, faultErr
	}
	s := metrics.Summarize(latencies)
	t.P50 = time.Duration(s.P50 * float64(time.Second))
	t.P99 = time.Duration(s.P99 * float64(time.Second))
	if t.Completed > 0 {
		if makespan := lastDone - load.Arrivals[0]; makespan > 0 {
			t.ThroughputPerMin = float64(t.Completed) / makespan.Minutes()
		}
	}
	return t, err
}
