package broker_test

import (
	"fmt"
	"testing"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mds"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// rig is a grid with a directory, publishing machines, and one broker.
type rig struct {
	g   *grid.Grid
	dir transport.Addr
	b   *broker.Broker
}

// newRig builds machines machines of procs processors each (fork mode),
// publishing to an MDS every 37 s, and a broker on its own host. The
// "app" executable passes the barrier and works for one second.
func newRig(t *testing.T, machines, procs int, opts broker.Options) *rig {
	t.Helper()
	g := grid.New(grid.Options{Seed: 1, Trace: true})
	dirHost := g.Net.AddHost("mds0")
	if _, err := mds.NewServer(dirHost, 0); err != nil {
		t.Fatalf("mds.NewServer: %v", err)
	}
	dir := transport.Addr{Host: "mds0", Service: mds.ServiceName}
	for i := 0; i < machines; i++ {
		name := fmt.Sprintf("m%02d", i)
		m := g.AddMachine(name, procs, lrm.Fork)
		mds.Publish(m, dir, g.Contact(name), 37*time.Second, 4, 8, procs)
	}
	g.RegisterEverywhere("app", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.Barrier(true, "", 0); err != nil {
			return nil
		}
		return p.Work(time.Second, time.Second)
	})
	opts.Directory = dir
	b, err := broker.New(g.Net.AddHost("broker0"), core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	}, opts)
	if err != nil {
		t.Fatalf("broker.New: %v", err)
	}
	return &rig{g: g, dir: dir, b: b}
}

// submitFrom runs one submission; it uses Errorf (not Fatalf) because it
// is called from simulated goroutines.
func submitFrom(t *testing.T, r *rig, host *transport.Host, req broker.Request) broker.Reply {
	t.Helper()
	c, err := broker.Dial(host, r.b.Contact())
	if err != nil {
		t.Errorf("broker.Dial: %v", err)
		return broker.Reply{}
	}
	defer c.Close()
	reply, err := c.Submit(req, 0)
	if err != nil {
		t.Errorf("Submit: %v", err)
	}
	return reply
}

func TestBrokerServesConcurrentTenants(t *testing.T) {
	r := newRig(t, 6, 32, broker.Options{Workers: 3})
	const tenants = 3
	replies := make([]broker.Reply, tenants)
	var wg *vtime.WaitGroup
	err := r.g.Sim.Run("main", func() {
		wg = vtime.NewWaitGroup(r.g.Sim)
		wg.Add(tenants)
		for i := 0; i < tenants; i++ {
			i := i
			host := r.g.Net.AddHost(fmt.Sprintf("t%d", i))
			r.g.Sim.GoDaemon(fmt.Sprintf("tenant%d", i), func() {
				defer wg.Done()
				// Distinct arrival instants keep the schedule exact.
				r.g.Sim.Sleep(10*time.Second + time.Duration(i)*111*time.Millisecond)
				replies[i] = submitFrom(t, r, host, broker.Request{
					Tenant:       fmt.Sprintf("tenant%d", i),
					Sites:        2,
					ProcsPerSite: 8,
					Executable:   "app",
					Spares:       1,
				})
			})
		}
		wg.Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i, reply := range replies {
		if !reply.OK() {
			t.Errorf("tenant%d: reply not ok: %+v", i, reply)
		}
		if reply.WorldSize != 16 {
			t.Errorf("tenant%d: world size = %d, want 16", i, reply.WorldSize)
		}
		if reply.Attempts != 1 {
			t.Errorf("tenant%d: attempts = %d, want 1", i, reply.Attempts)
		}
	}
	c := r.g.Counters
	if got := c.Get(trace.Key("broker", "request", "ok", "broker0")); got != tenants {
		t.Errorf("broker.request.ok = %d, want %d", got, tenants)
	}
	if got := c.Get(trace.Key("broker", "queue", "enqueue", "broker0")); got != tenants {
		t.Errorf("broker.queue.enqueue = %d, want %d", got, tenants)
	}
	if got := c.Get(trace.Key("broker", "queue", "reject", "broker0")); got != 0 {
		t.Errorf("broker.queue.reject = %d, want 0", got)
	}
}

func TestBrokerBackpressureRejectsWithRetryAfter(t *testing.T) {
	r := newRig(t, 4, 32, broker.Options{
		Workers:    1,
		QueueBound: 1,
		RetryAfter: 10 * time.Second,
	})
	const n = 4
	type outcome struct {
		reply   broker.Reply
		rejects int
	}
	outcomes := make([]outcome, n)
	err := r.g.Sim.Run("main", func() {
		wg := vtime.NewWaitGroup(r.g.Sim)
		wg.Add(n)
		for i := 0; i < n; i++ {
			i := i
			host := r.g.Net.AddHost(fmt.Sprintf("t%d", i))
			r.g.Sim.GoDaemon(fmt.Sprintf("tenant%d", i), func() {
				defer wg.Done()
				r.g.Sim.Sleep(10*time.Second + time.Duration(i)*time.Millisecond)
				c, err := broker.Dial(host, r.b.Contact())
				if err != nil {
					t.Errorf("Dial: %v", err)
					return
				}
				defer c.Close()
				reply, rejects, err := c.SubmitWait(broker.Request{
					Tenant:       fmt.Sprintf("tenant%d", i),
					Sites:        1,
					ProcsPerSite: 4,
					Executable:   "app",
				}, 0, 20)
				if err != nil {
					t.Errorf("SubmitWait: %v", err)
					return
				}
				outcomes[i] = outcome{reply: reply, rejects: rejects}
			})
		}
		wg.Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	totalRejects := 0
	for i, o := range outcomes {
		if !o.reply.OK() {
			t.Errorf("request %d failed: %+v", i, o.reply)
		}
		totalRejects += o.rejects
	}
	if totalRejects == 0 {
		t.Errorf("expected at least one admission rejection with queue bound 1")
	}
	if got := r.g.Counters.Get(trace.Key("broker", "queue", "reject", "broker0")); got != int64(totalRejects) {
		t.Errorf("broker.queue.reject = %d, client-observed rejects = %d", got, totalRejects)
	}
}

func TestBrokerSubstitutesDeadResource(t *testing.T) {
	r := newRig(t, 3, 32, broker.Options{Workers: 1})
	// One machine is down but still published: the broker will select it
	// (its record looks idle) and must substitute from the spare.
	r.g.Machine("m00").SetDown(true)
	var reply broker.Reply
	err := r.g.Sim.Run("main", func() {
		r.g.Sim.Sleep(10 * time.Second)
		host := r.g.Net.AddHost("t0")
		reply = submitFrom(t, r, host, broker.Request{
			Tenant:       "tenant0",
			Sites:        2,
			ProcsPerSite: 8,
			Executable:   "app",
			Spares:       1,
		})
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !reply.OK() {
		t.Fatalf("reply not ok: %+v", reply)
	}
	if reply.Substitutions != 1 {
		t.Errorf("substitutions = %d, want 1", reply.Substitutions)
	}
}

func TestBrokerRetriesUntilResourcesAppear(t *testing.T) {
	// No machines publish until t=45s: the first attempts find an empty
	// directory and the no-candidates class must back off, force-refresh,
	// and eventually succeed.
	g := grid.New(grid.Options{Seed: 1, Trace: true})
	dirHost := g.Net.AddHost("mds0")
	if _, err := mds.NewServer(dirHost, 0); err != nil {
		t.Fatalf("mds.NewServer: %v", err)
	}
	dir := transport.Addr{Host: "mds0", Service: mds.ServiceName}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("m%02d", i)
		m := g.AddMachine(name, 32, lrm.Fork)
		g.Sim.AfterFunc(45*time.Second, func() {
			mds.Publish(m, dir, g.Contact(name), 37*time.Second, 8)
		})
	}
	g.RegisterEverywhere("app", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		rt.Barrier(true, "", 0)
		return nil
	})
	b, err := broker.New(g.Net.AddHost("broker0"), core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	}, broker.Options{
		Directory: dir,
		Workers:   1,
		Retry: broker.RetryPolicy{
			MaxAttempts:   4,
			BackoffFactor: 2,
			Default:       broker.ClassDecision{Retry: true, Backoff: 20 * time.Second},
		},
	})
	if err != nil {
		t.Fatalf("broker.New: %v", err)
	}
	var reply broker.Reply
	simErr := g.Sim.Run("main", func() {
		g.Sim.Sleep(time.Second)
		host := g.Net.AddHost("t0")
		c, err := broker.Dial(host, b.Contact())
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		reply, err = c.Submit(broker.Request{
			Tenant:       "tenant0",
			Sites:        2,
			ProcsPerSite: 8,
			Executable:   "app",
		}, 0)
		if err != nil {
			t.Errorf("Submit: %v", err)
		}
	})
	if simErr != nil {
		t.Fatalf("sim: %v", simErr)
	}
	if !reply.OK() {
		t.Fatalf("reply not ok: %+v", reply)
	}
	if reply.Attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (directory was empty at first)", reply.Attempts)
	}
	if got := g.Counters.Get(trace.Key("broker", "retry", "no-candidates", "broker0")); got == 0 {
		t.Errorf("broker.retry.no-candidates = 0, want > 0")
	}
}

func TestBrokerRoundRobinFairness(t *testing.T) {
	r := newRig(t, 4, 32, broker.Options{Workers: 1, QueueBound: 16})
	type result struct {
		tenant string
		doneAt time.Duration
	}
	var results []result
	err := r.g.Sim.Run("main", func() {
		wg := vtime.NewWaitGroup(r.g.Sim)
		// Tenant A floods five requests; tenant B submits one just after.
		// Round-robin must serve B second, not sixth.
		submit := func(tenant string, host *transport.Host, delay time.Duration) {
			wg.Add(1)
			r.g.Sim.GoDaemon("driver:"+tenant+host.Name(), func() {
				defer wg.Done()
				r.g.Sim.Sleep(delay)
				reply := submitFrom(t, r, host, broker.Request{
					Tenant:       tenant,
					Sites:        1,
					ProcsPerSite: 8,
					Executable:   "app",
				})
				if !reply.OK() {
					t.Errorf("%s: reply not ok: %+v", tenant, reply)
				}
				results = append(results, result{tenant: tenant, doneAt: r.g.Sim.Now()})
			})
		}
		base := 10 * time.Second
		for i := 0; i < 5; i++ {
			host := r.g.Net.AddHost(fmt.Sprintf("a%d", i))
			submit("tenantA", host, base+time.Duration(i)*time.Millisecond)
		}
		submit("tenantB", r.g.Net.AddHost("b0"), base+7*time.Millisecond)
		wg.Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results", len(results))
	}
	// results is completion-ordered (single worker serializes requests).
	// A's first request is already running when B arrives, and the ring
	// gives A one more turn before B joins the rotation, so round-robin
	// serves B third at the latest — well before A's flood drains. FIFO
	// would have served B sixth.
	bIndex := -1
	for i, res := range results {
		if res.tenant == "tenantB" {
			bIndex = i
		}
	}
	if bIndex < 0 || bIndex > 2 {
		t.Errorf("tenantB completed at position %d, want <= 2 (round-robin); order: %v", bIndex, results)
	}
}

func TestBrokerCacheHitAndStaleCounters(t *testing.T) {
	r := newRig(t, 2, 32, broker.Options{
		Workers:         1,
		CacheMaxAge:     10 * time.Second,
		RefreshInterval: time.Hour, // background refresh effectively off
	})
	err := r.g.Sim.Run("main", func() {
		host := r.g.Net.AddHost("t0")
		req := broker.Request{Tenant: "t", Sites: 1, ProcsPerSite: 4, Executable: "app"}
		r.g.Sim.Sleep(6 * time.Second) // cache refreshed at t=5s: hit
		submitFrom(t, r, host, req)
		r.g.Sim.SleepUntil(40 * time.Second) // cache now 35s old: stale
		submitFrom(t, r, host, req)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	c := r.g.Counters
	if got := c.Get(trace.Key("broker", "cache", "hit", "broker0")); got != 1 {
		t.Errorf("broker.cache.hit = %d, want 1", got)
	}
	if got := c.Get(trace.Key("broker", "cache", "stale", "broker0")); got != 1 {
		t.Errorf("broker.cache.stale = %d, want 1", got)
	}
	if got := c.Get(trace.Key("broker", "cache", "refresh", "broker0")); got < 2 {
		t.Errorf("broker.cache.refresh = %d, want >= 2 (offset refresh + stale refill)", got)
	}
}

func TestBrokerStats(t *testing.T) {
	r := newRig(t, 2, 32, broker.Options{Workers: 2, QueueBound: 7})
	err := r.g.Sim.Run("main", func() {
		r.g.Sim.Sleep(10 * time.Second)
		host := r.g.Net.AddHost("t0")
		c, err := broker.Dial(host, r.b.Contact())
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		s, err := c.Stats()
		if err != nil {
			t.Errorf("Stats: %v", err)
			return
		}
		if s.QueueBound != 7 || s.Workers != 2 {
			t.Errorf("stats = %+v", s)
		}
		if s.CacheSize != 2 {
			t.Errorf("cache size = %d, want 2", s.CacheSize)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestBrokerRejectsMalformedRequests(t *testing.T) {
	r := newRig(t, 1, 8, broker.Options{})
	err := r.g.Sim.Run("main", func() {
		host := r.g.Net.AddHost("t0")
		c, err := broker.Dial(host, r.b.Contact())
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		if _, err := c.Submit(broker.Request{Sites: 0, ProcsPerSite: 1, Executable: "app"}, 0); err == nil {
			t.Errorf("Submit with zero sites succeeded")
		}
		if _, err := c.Submit(broker.Request{Sites: 1, ProcsPerSite: 1}, 0); err == nil {
			t.Errorf("Submit without executable succeeded")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestRetryPolicyBackoffSchedule(t *testing.T) {
	p := broker.DefaultRetryPolicy()
	if d := p.BackoffFor(broker.ClassCommitTimeout, 1); d != time.Minute {
		t.Errorf("first backoff = %v, want 1m", d)
	}
	if d := p.BackoffFor(broker.ClassCommitTimeout, 2); d != 2*time.Minute {
		t.Errorf("second backoff = %v, want 2m", d)
	}
	if !p.For(broker.ClassNoCandidates).Retry {
		t.Errorf("no-candidates should retry by default")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want broker.Class
	}{
		{broker.ErrNoCandidates, broker.ClassNoCandidates},
		{core.ErrCommitTimeout, broker.ClassCommitTimeout},
		{core.ErrSubjobNotReady, broker.ClassPoolExhausted},
		{core.ErrAborted, broker.ClassAborted},
		{fmt.Errorf("wrapped: %w", core.ErrCommitTimeout), broker.ClassCommitTimeout},
		{fmt.Errorf("something else"), broker.ClassOther},
	}
	for _, tc := range cases {
		if got := broker.Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %s, want %s", tc.err, got, tc.want)
		}
	}
}

// TestBrokerCachePerOriginStaleness exercises the federation contract:
// hit/stale accounting keys by the origin replica that decided on the
// view, and a forwarded request carrying ViewAsOf is never answered from
// a cache fetched before that floor. Several origins submit concurrently
// while the refresh daemon runs, so `go test -race` also checks the
// per-origin bookkeeping for data races.
func TestBrokerCachePerOriginStaleness(t *testing.T) {
	r := newRig(t, 3, 32, broker.Options{
		Workers:         3,
		CacheMaxAge:     time.Hour, // age alone never forces a refresh
		RefreshInterval: time.Hour,
	})
	const origins = 3
	err := r.g.Sim.Run("main", func() {
		wg := vtime.NewWaitGroup(r.g.Sim)
		for i := 0; i < origins; i++ {
			i := i
			host := r.g.Net.AddHost(fmt.Sprintf("o%d", i))
			wg.Add(1)
			r.g.Sim.GoDaemon(fmt.Sprintf("origin%d", i), func() {
				defer wg.Done()
				r.g.Sim.Sleep(20*time.Second + time.Duration(i)*131*time.Millisecond)
				// Served from the 5s-old view: a hit for this origin.
				submitFrom(t, r, host, broker.Request{
					Tenant: "t", Sites: 1, ProcsPerSite: 4, Executable: "app",
					Origin: fmt.Sprintf("fed%02d", i),
				})
				// A forward whose origin decided on a fresher view than
				// the broker holds: must refresh before answering.
				submitFrom(t, r, host, broker.Request{
					Tenant: "t", Sites: 1, ProcsPerSite: 4, Executable: "app",
					Origin:   fmt.Sprintf("fed%02d", i),
					ViewAsOf: r.g.Sim.Now(),
				})
			})
		}
		wg.Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	c := r.g.Counters
	for i := 0; i < origins; i++ {
		origin := fmt.Sprintf("fed%02d", i)
		if got := c.Get(trace.Key("broker", "cache", "hit", origin)); got != 1 {
			t.Errorf("broker.cache.hit@%s = %d, want 1", origin, got)
		}
		if got := c.Get(trace.Key("broker", "cache", "stale", origin)); got != 1 {
			t.Errorf("broker.cache.stale@%s = %d, want 1", origin, got)
		}
	}
	// Nothing was attributed to the serving process's own id.
	if got := c.Get(trace.Key("broker", "cache", "hit", "broker0")); got != 0 {
		t.Errorf("broker.cache.hit@broker0 = %d, want 0 (all lookups carried origins)", got)
	}
}

// TestTwoSubmitsOnOneConnection: one connection to the broker may carry
// several requests at once. Two submits outstanding on one Client, with one
// worker, are both admitted and both counted in the queue depth (their
// enqueue instants say 1 and 2), and each is answered when its own
// co-allocation ends: one round trip plus the broker-side Elapsed after it
// was sent, the second a whole co-allocation after the first.
func TestTwoSubmitsOnOneConnection(t *testing.T) {
	r := newRig(t, 4, 32, broker.Options{Workers: 1})
	var replies [2]broker.Reply
	var answered [2]time.Duration
	var sent, rtt time.Duration
	err := r.g.Sim.Run("main", func() {
		r.g.Sim.Sleep(10 * time.Second) // the directory has every machine
		c, err := broker.Dial(r.g.Net.AddHost("t0"), r.b.Contact())
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		start := r.g.Sim.Now()
		if _, err := c.Stats(); err != nil {
			t.Errorf("Stats: %v", err)
			return
		}
		rtt = r.g.Sim.Now() - start
		wg := vtime.NewWaitGroup(r.g.Sim)
		wg.Add(len(replies))
		sent = r.g.Sim.Now()
		for i := range replies {
			r.g.Sim.Go(fmt.Sprintf("submit%d", i), func() {
				defer wg.Done()
				reply, err := c.Submit(broker.Request{
					Tenant:       fmt.Sprintf("tenant%d", i),
					Sites:        2,
					ProcsPerSite: 8,
					Executable:   "app",
				}, 0)
				if err != nil {
					t.Errorf("Submit %d: %v", i, err)
				}
				replies[i], answered[i] = reply, r.g.Sim.Now()
			})
		}
		wg.Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	var depths []string
	for _, ev := range r.g.Tracer.Events() {
		if ev.Cat == "broker" && ev.Name == "enqueue" {
			for _, arg := range ev.Args {
				if arg.Key == "depth" {
					depths = append(depths, arg.Val)
				}
			}
		}
	}
	if fmt.Sprint(depths) != "[1 2]" {
		t.Errorf("enqueue depths %v, want [1 2]: both requests admitted and queued at once", depths)
	}
	for i, reply := range replies {
		if !reply.OK() {
			t.Errorf("request %d: %+v, want committed", i, reply)
		}
		if want := sent + rtt + reply.Elapsed; answered[i] != want {
			t.Errorf("request %d answered at %v, want %v: when its own co-allocation ended", i, answered[i], want)
		}
	}
	if first, second := replies[0], replies[1]; first.QueueWait != 0 || second.QueueWait < first.Elapsed {
		t.Errorf("queue waits %v and %v: the second request should have waited out the first's %v",
			first.QueueWait, second.QueueWait, first.Elapsed)
	}
}
