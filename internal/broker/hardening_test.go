package broker_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mds"
	"cogrid/internal/rpc"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
)

func TestBackoffCapped(t *testing.T) {
	p := broker.DefaultRetryPolicy()
	// The stock policy caps at 5 minutes: 1m, 2m, 4m, then the cap.
	if d := p.BackoffFor(broker.ClassCommitTimeout, 3); d != 4*time.Minute {
		t.Errorf("third backoff = %v, want 4m", d)
	}
	if d := p.BackoffFor(broker.ClassCommitTimeout, 4); d != 5*time.Minute {
		t.Errorf("fourth backoff = %v, want the 5m cap", d)
	}
	if d := p.BackoffFor(broker.ClassCommitTimeout, 100); d != 5*time.Minute {
		t.Errorf("100th backoff = %v, want the 5m cap", d)
	}
	// A policy without its own cap falls back to DefaultMaxBackoff, even
	// at attempt counts where the uncapped float math would overflow into
	// a bogus (possibly negative) Duration.
	unset := broker.RetryPolicy{
		MaxAttempts:   1000,
		BackoffFactor: 2,
		Default:       broker.ClassDecision{Retry: true, Backoff: time.Minute},
	}
	for _, n := range []int{1, 10, 64, 500, 1000} {
		d := unset.BackoffFor(broker.ClassOther, n)
		if d <= 0 {
			t.Fatalf("backoff for attempt %d = %v, overflowed", n, d)
		}
		if d > broker.DefaultMaxBackoff {
			t.Errorf("backoff for attempt %d = %v, want <= %v", n, d, broker.DefaultMaxBackoff)
		}
	}
}

func TestFaultClass(t *testing.T) {
	cases := []struct {
		reason, want string
	}{
		{"gsi: rejected by server: unknown principal", "auth-rejected"},
		{"lost contact with resource manager", "lost-contact"},
		{"startup timeout after 2m0s", "slow-start"},
		{"submit: lrm: machine is down", "machine-down"},
		{"gram: dial m01:gram: host crashed", "unreachable"},
		{"resource manager reported failure: wall-time limit exceeded", "lrm-report"},
		{"processes exited before the co-allocation barrier", "early-exit"},
		{"some novel condition", "other"},
	}
	for _, tc := range cases {
		if got := broker.FaultClass(tc.reason); got != tc.want {
			t.Errorf("FaultClass(%q) = %q, want %q", tc.reason, got, tc.want)
		}
	}
}

// saturatedBroker is a fake broker endpoint that rejects every submission
// with a retry-after hint, for exercising the client's total budget.
type saturatedBroker struct {
	retryAfter time.Duration
	rejects    int
}

func (s *saturatedBroker) ServeCall(call *rpc.Call, method string, body json.RawMessage) {
	s.rejects++
	call.Reply(broker.Reply{Accepted: false, RetryAfter: s.retryAfter}, nil)
}

func TestSubmitWaitTotalBudget(t *testing.T) {
	g := grid.New(grid.Options{Seed: 1})
	srvHost := g.Net.AddHost("fake0")
	l, err := srvHost.Listen("broker")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	fake := &saturatedBroker{retryAfter: 10 * time.Second}
	rpc.Serve(g.Sim, l, fake, nil)

	const budget = 2 * time.Minute
	var elapsed time.Duration
	var rejects int
	var submitErr error
	simErr := g.Sim.Run("main", func() {
		host := g.Net.AddHost("t0")
		c, err := broker.Dial(host, transport.Addr{Host: "fake0", Service: "broker"})
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		start := g.Sim.Now()
		_, rejects, submitErr = c.SubmitWait(broker.Request{
			Tenant: "t", Sites: 1, ProcsPerSite: 1, Executable: "app",
		}, budget, 1000)
		elapsed = g.Sim.Now() - start
	})
	if simErr != nil {
		t.Fatalf("sim: %v", simErr)
	}
	if submitErr == nil {
		t.Fatalf("SubmitWait against a saturated broker succeeded")
	}
	if !strings.Contains(submitErr.Error(), "budget exhausted") {
		t.Errorf("error = %v, want budget exhausted", submitErr)
	}
	// The timeout is a total budget: ~12 rejection rounds at 10 s apart,
	// not 1000 rounds each granted a fresh 2-minute timeout.
	if elapsed > budget {
		t.Errorf("SubmitWait consumed %v, want <= the %v budget", elapsed, budget)
	}
	if elapsed < budget-15*time.Second {
		t.Errorf("SubmitWait gave up after %v, want close to the %v budget", elapsed, budget)
	}
	if rejects < 10 || rejects >= 1000 {
		t.Errorf("rejects = %d, want ~12 budget-bounded rounds", rejects)
	}
}

func TestAbandonedRequestStopsRetries(t *testing.T) {
	// No machines ever publish: every attempt fails no-candidates and the
	// policy wants to back off 30s, 60s, ... The client's 45-second
	// timeout becomes the request deadline, so the broker must abandon at
	// the second backoff instead of burning the remaining attempts.
	g := grid.New(grid.Options{Seed: 1, Trace: true})
	dirHost := g.Net.AddHost("mds0")
	if _, err := mds.NewServer(dirHost, 0); err != nil {
		t.Fatalf("mds.NewServer: %v", err)
	}
	dir := transport.Addr{Host: "mds0", Service: mds.ServiceName}
	b, err := broker.New(g.Net.AddHost("broker0"), core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	}, broker.Options{
		Directory: dir,
		Workers:   1,
		Retry: broker.RetryPolicy{
			MaxAttempts:   10,
			BackoffFactor: 2,
			Default:       broker.ClassDecision{Retry: true, Backoff: 30 * time.Second},
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
			Tenant: "t", Sites: 2, ProcsPerSite: 8, Executable: "app",
		}, 45*time.Second)
		if err != nil {
			t.Errorf("Submit: %v", err)
		}
		// Give the broker room: had it kept retrying, attempts would land
		// at +90s, +210s, ... well inside this window.
		g.Sim.Sleep(10 * time.Minute)
	})
	if simErr != nil {
		t.Fatalf("sim: %v", simErr)
	}
	if reply.OK() {
		t.Fatalf("reply unexpectedly ok: %+v", reply)
	}
	if !strings.Contains(reply.Error, "abandoned") {
		t.Errorf("reply error = %q, want abandoned", reply.Error)
	}
	c := g.Counters
	if got := c.Get(trace.Key("broker", "request", "abandoned", "broker0")); got != 1 {
		t.Errorf("broker.request.abandoned = %d, want 1", got)
	}
	if got := c.Get(trace.Key("broker", "request", "fail", "broker0")); got != 0 {
		t.Errorf("broker.request.fail = %d, want 0 (abandoned, not failed)", got)
	}
	// Two attempts fit before the deadline; the rest must not run.
	if got := c.Get(trace.Key("broker", "retry", "no-candidates", "broker0")); got != 2 {
		t.Errorf("broker.retry.no-candidates = %d, want 2", got)
	}
}

func TestOrphanReapedAfterHangHeals(t *testing.T) {
	// One batch machine, fully occupied: the broker's subjob queues behind
	// the occupant. The machine then hangs, the attempt times out, and the
	// abort-time cancel cannot be confirmed — an orphan. When the machine
	// is restored, the controller's 45 s orphan sweep (at 270 s, after the
	// heal at 250 s) must land the cancel and the queued job must die
	// without ever holding processors.
	g := grid.New(grid.Options{Seed: 1, Trace: true})
	dirHost := g.Net.AddHost("mds0")
	if _, err := mds.NewServer(dirHost, 0); err != nil {
		t.Fatalf("mds.NewServer: %v", err)
	}
	dir := transport.Addr{Host: "mds0", Service: mds.ServiceName}
	m := g.AddMachine("m00", 8, lrm.Batch)
	mds.Publish(m, dir, g.Contact("m00"), 37*time.Second, 8)
	m.RegisterExecutable("hold", func(p *lrm.Proc) error {
		return p.Work(2*time.Minute, time.Second)
	})
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
			MaxAttempts: 1,
			Default:     broker.ClassDecision{Retry: false},
		},
	})
	if err != nil {
		t.Fatalf("broker.New: %v", err)
	}
	var reply broker.Reply
	simErr := g.Sim.Run("main", func() {
		// Fill the machine so the broker's subjob queues as PENDING.
		if _, err := m.Submit(lrm.JobSpec{Executable: "hold", Count: 8}); err != nil {
			t.Errorf("occupant submit: %v", err)
			return
		}
		g.Sim.Sleep(10 * time.Second)
		// Hang the machine once the subjob has been queued there.
		g.Sim.AfterFunc(20*time.Second, func() { m.Host().Hang() })
		// Heal well after the failed cancel has been recorded.
		g.Sim.AfterFunc(4*time.Minute, func() { m.Host().Restore() })
		host := g.Net.AddHost("t0")
		c, err := broker.Dial(host, b.Contact())
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		reply, err = c.Submit(broker.Request{
			Tenant:        "t",
			Sites:         1,
			ProcsPerSite:  8,
			Executable:    "app",
			CommitTimeout: time.Minute,
		}, 0)
		if err != nil {
			t.Errorf("Submit: %v", err)
		}
		// Run past the heal plus a reap sweep.
		g.Sim.SleepUntil(6 * time.Minute)
	})
	if simErr != nil {
		t.Fatalf("sim: %v", simErr)
	}
	if reply.OK() {
		t.Fatalf("reply unexpectedly ok: %+v", reply)
	}
	c := g.Counters
	if got := c.Get(trace.Key("broker", "orphan", "record", "broker0")); got != 1 {
		t.Errorf("broker.orphan.record = %d, want 1", got)
	}
	if got := c.Get(trace.Key("broker", "orphan", "reaped", "broker0")); got != 1 {
		t.Errorf("broker.orphan.reaped = %d, want 1", got)
	}
	if got := b.Controller().OrphansPending(); got != 0 {
		t.Errorf("OrphansPending = %d, want 0", got)
	}
	if got := m.LiveJobs(); got != 0 {
		t.Errorf("LiveJobs = %d, want 0 (queued subjob reaped, occupant done)", got)
	}
}

func TestBrokerDialClosesConnOnHandshakeFailure(t *testing.T) {
	// Dialing a host with no broker service must not leak the transport
	// connection. The transport errors the dial itself when nothing
	// listens, so exercise the error path and then confirm the dialing
	// host can still open its full connection budget elsewhere.
	g := grid.New(grid.Options{Seed: 1})
	g.Net.AddHost("empty0")
	err := g.Sim.Run("main", func() {
		host := g.Net.AddHost("t0")
		if _, err := broker.Dial(host, transport.Addr{Host: "empty0", Service: "broker"}); err == nil {
			t.Errorf("Dial to host without broker service succeeded")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
