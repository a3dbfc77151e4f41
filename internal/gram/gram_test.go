package gram

import (
	"strings"
	"testing"
	"time"

	"cogrid/internal/gsi"
	"cogrid/internal/lrm"
	"cogrid/internal/nis"
	"cogrid/internal/rpc"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// testbed is a one-machine grid: a client workstation, a gatekeeper
// machine, and a NIS server, all 1ms (one-way) apart.
type testbed struct {
	sim      *vtime.Sim
	client   *transport.Host
	machine  *lrm.Machine
	server   *Server
	registry *gsi.Registry
	userCred gsi.Credential
	tracer   *trace.Tracer
}

func newTestbed(t *testing.T, mode lrm.Mode) *testbed {
	t.Helper()
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	tb := &testbed{sim: sim, registry: gsi.NewRegistry(), tracer: trace.New(sim)}
	net.SetTracer(tb.tracer)
	tb.client = net.AddHost("workstation")
	origin := net.AddHost("origin")
	nisHost := net.AddHost("nis1")

	nisSrv, err := nis.NewServer(nisHost, 0)
	if err != nil {
		t.Fatalf("nis: %v", err)
	}
	tb.userCred = tb.registry.Issue("user/alice")
	nisSrv.AddUser("user/alice", "users", "grid")

	tb.machine = lrm.NewMachine(origin, 64, lrm.Config{Mode: mode})
	tb.machine.RegisterExecutable("work", func(p *lrm.Proc) error {
		return p.Work(time.Second, time.Second)
	})
	tb.machine.RegisterExecutable("forever", func(p *lrm.Proc) error {
		return p.Work(time.Hour, time.Second)
	})
	tb.server, err = StartServer(tb.machine, ServerConfig{
		Credential: tb.registry.Issue("host/origin"),
		Registry:   tb.registry,
		NISAddr:    transport.Addr{Host: "nis1", Service: nis.ServiceName},
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	return tb
}

func (tb *testbed) dial(t *testing.T) *Client {
	t.Helper()
	c, err := Dial(tb.client, tb.server.Contact(), ClientConfig{
		Credential: tb.userCred,
		Registry:   tb.registry,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return c
}

// waitForState drains events until the wanted state or stream end.
func waitForState(c *Client, want lrm.JobState) (StateEvent, bool) {
	for {
		ev, ok := c.Events().Recv()
		if !ok {
			return StateEvent{}, false
		}
		if ev.State == want {
			return ev, true
		}
	}
}

func TestSubmitForkJobLifecycle(t *testing.T) {
	tb := newTestbed(t, lrm.Fork)
	err := tb.sim.Run("main", func() {
		c := tb.dial(t)
		defer c.Close()
		contact, err := c.Submit(`&(executable=work)(count=8)`)
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if !strings.HasPrefix(contact, "origin:gram/") {
			t.Errorf("contact = %q", contact)
		}
		if _, ok := waitForState(c, lrm.StateActive); !ok {
			t.Error("never saw ACTIVE callback")
			return
		}
		if ev, ok := waitForState(c, lrm.StateDone); !ok {
			t.Error("never saw DONE callback")
		} else if ev.Contact != contact {
			t.Errorf("event contact = %q, want %q", ev.Contact, contact)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSubmitLatencyMatchesPipeline(t *testing.T) {
	tb := newTestbed(t, lrm.Fork)
	err := tb.sim.Run("main", func() {
		c := tb.dial(t)
		defer c.Close()
		dialDone := tb.sim.Now()
		// Dial includes connection (2ms) + GSI handshake (504ms).
		if dialDone != 506*time.Millisecond {
			t.Errorf("dial+auth took %v, want 506ms", dialDone)
		}
		if _, err := c.Submit(`&(executable=work)(count=1)`); err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		// Submit: request 1ms + misc 10ms + initgroups 700ms + fork 1ms +
		// reply 1ms = 713ms.
		if took := tb.sim.Now() - dialDone; took != 713*time.Millisecond {
			t.Errorf("submit took %v, want 713ms", took)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSubmitLatencyInsensitiveToProcessCount(t *testing.T) {
	// Figure 2's finding: GRAM submission cost is flat in process count.
	durations := make(map[int]time.Duration)
	for _, count := range []int{1, 16, 32, 64} {
		tb := newTestbed(t, lrm.Fork)
		count := count
		err := tb.sim.Run("main", func() {
			c := tb.dial(t)
			defer c.Close()
			start := tb.sim.Now()
			if _, err := c.Submit(`&(executable=work)(count=` + itoa(count) + `)`); err != nil {
				t.Errorf("Submit %d: %v", count, err)
				return
			}
			durations[count] = tb.sim.Now() - start
		})
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
	}
	base := durations[1]
	for count, d := range durations {
		if d != base {
			t.Errorf("submission latency for %d procs = %v, want %v (flat)", count, d, base)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestFigure3Breakdown(t *testing.T) {
	tb := newTestbed(t, lrm.Fork)
	err := tb.sim.Run("main", func() {
		c := tb.dial(t)
		defer c.Close()
		if _, err := c.Submit(`&(executable=work)(count=1)`); err != nil {
			t.Errorf("Submit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	totals := trace.DeriveTimeline(tb.sim, tb.tracer.Events(), trace.IsPhase).PhaseTotals()
	// 500ms compute + message latencies, measured from the server side
	// (accept to final result frame).
	if got := totals["authentication"]; got != 503*time.Millisecond {
		t.Errorf("authentication = %v, want 503ms (paper: 0.5s)", got)
	}
	if got := totals["initgroups"]; got != 700*time.Millisecond {
		t.Errorf("initgroups = %v, want 700ms (paper: 0.7s)", got)
	}
	if got := totals["misc"]; got != 10*time.Millisecond {
		t.Errorf("misc = %v, want 10ms (paper: 0.01s)", got)
	}
	if got := totals["fork"]; got != time.Millisecond {
		t.Errorf("fork = %v, want 1ms (paper: 0.001s)", got)
	}
}

func TestSubmitUnknownExecutable(t *testing.T) {
	tb := newTestbed(t, lrm.Fork)
	err := tb.sim.Run("main", func() {
		c := tb.dial(t)
		defer c.Close()
		_, err := c.Submit(`&(executable=missing)(count=1)`)
		if err == nil || !strings.Contains(err.Error(), "unknown executable") {
			t.Errorf("Submit = %v, want unknown-executable error", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSubmitBadRSL(t *testing.T) {
	tb := newTestbed(t, lrm.Fork)
	err := tb.sim.Run("main", func() {
		c := tb.dial(t)
		defer c.Close()
		for _, src := range []string{"not rsl ((", `&(count=2)`, `&(executable=work)`, `&(executable=work)(count=zero)`} {
			if _, err := c.Submit(src); err == nil {
				t.Errorf("Submit(%q) succeeded", src)
			}
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCancelJob(t *testing.T) {
	tb := newTestbed(t, lrm.Fork)
	err := tb.sim.Run("main", func() {
		c := tb.dial(t)
		defer c.Close()
		contact, err := c.Submit(`&(executable=forever)(count=4)`)
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if err := c.Cancel(contact); err != nil {
			t.Errorf("Cancel: %v", err)
		}
		if _, ok := waitForState(c, lrm.StateCancelled); !ok {
			t.Error("never saw CANCELLED callback")
		}
		state, _, err := c.Status(contact)
		if err != nil || state != lrm.StateCancelled {
			t.Errorf("Status = %v, %v", state, err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCancelUnknownContact(t *testing.T) {
	tb := newTestbed(t, lrm.Fork)
	err := tb.sim.Run("main", func() {
		c := tb.dial(t)
		defer c.Close()
		if err := c.Cancel("origin:gram/999"); err == nil {
			t.Error("Cancel of unknown contact succeeded")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestRevokedUserCannotDial(t *testing.T) {
	tb := newTestbed(t, lrm.Fork)
	tb.registry.Revoke("user/alice")
	err := tb.sim.Run("main", func() {
		_, err := Dial(tb.client, tb.server.Contact(), ClientConfig{
			Credential: tb.userCred,
			Registry:   tb.registry,
		})
		if err == nil {
			t.Error("Dial with revoked credential succeeded")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestQueueInfoAndEstimateWait(t *testing.T) {
	tb := newTestbed(t, lrm.Batch)
	err := tb.sim.Run("main", func() {
		c := tb.dial(t)
		defer c.Close()
		if _, err := c.Submit(`&(executable=forever)(count=64)(maxTime=30)`); err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		info, err := c.QueueInfo()
		if err != nil {
			t.Errorf("QueueInfo: %v", err)
			return
		}
		if info.Machine != "origin" || info.RunningJobs != 1 || info.FreeProcessors != 0 {
			t.Errorf("QueueInfo = %+v", info)
		}
		wait, err := c.EstimateWait(64)
		if err != nil {
			t.Errorf("EstimateWait: %v", err)
			return
		}
		if wait <= 0 || wait > 30*time.Minute {
			t.Errorf("EstimateWait = %v, want within (0, 30m]", wait)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestGatekeeperCrashFailsSubmit(t *testing.T) {
	tb := newTestbed(t, lrm.Fork)
	err := tb.sim.Run("main", func() {
		c := tb.dial(t)
		tb.sim.AfterFunc(100*time.Millisecond, func() {
			tb.machine.Host().Crash()
		})
		_, err := c.Submit(`&(executable=work)(count=1)`)
		if err != rpc.ErrClosed {
			t.Errorf("Submit during crash = %v, want rpc.ErrClosed", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestParseJobRSLEnvironmentAndMaxTime(t *testing.T) {
	spec, err := ParseJobRSL(`&(executable=worker)(count=4)(maxTime=15)(environment=(DUROC_CONTACT host:duroc INDEX 3))`)
	if err != nil {
		t.Fatalf("ParseJobRSL: %v", err)
	}
	if spec.Executable != "worker" || spec.Count != 4 {
		t.Errorf("spec = %+v", spec)
	}
	if spec.TimeLimit != 15*time.Minute {
		t.Errorf("TimeLimit = %v, want 15m", spec.TimeLimit)
	}
	if spec.Env["DUROC_CONTACT"] != "host:duroc" || spec.Env["INDEX"] != "3" {
		t.Errorf("Env = %v", spec.Env)
	}
}

func TestParseJobRSLRejectsOddEnvironment(t *testing.T) {
	if _, err := ParseJobRSL(`&(executable=w)(count=1)(environment=(A))`); err == nil {
		t.Error("odd environment sequence accepted")
	}
}

// A client that does not consume its job-state callbacks loses the ones that
// do not fit its event queue — it is never blocked by them — and every loss
// is on the record: what the gatekeeper pushed is what the client queued
// plus what it counted dropped, and each drop has its trace instant.
func TestEventQueueOverflowIsCounted(t *testing.T) {
	tb := newTestbed(t, lrm.Fork)
	net := tb.client.Network()
	tr, ctrs := trace.New(tb.sim), trace.NewCounters()
	net.SetTracer(tr)
	net.SetCounters(ctrs)
	const jobs = 40 // ACTIVE and DONE each: 80 callbacks for a queue of 64
	err := tb.sim.Run("main", func() {
		c := tb.dial(t)
		defer c.Close()
		for i := 0; i < jobs; i++ {
			if _, err := c.Submit(`&(executable=work)(count=1)`); err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
		}
		tb.sim.Sleep(time.Minute) // every job has run out
		queued := int64(0)
		for {
			if _, ok := c.Events().TryRecv(); !ok {
				break
			}
			queued++
		}
		pushed := ctrs.Get(trace.Key("rpc", "notify", "send", "origin"))
		dropped := ctrs.Get(trace.Key("gram", "event", "drop", "workstation"))
		if pushed != 2*jobs || queued != 64 || pushed != queued+dropped {
			t.Errorf("pushed %d, queued %d, dropped %d: a callback is unaccounted for", pushed, queued, dropped)
		}
		if lost := ctrs.Get(trace.Key("rpc", "notify", "drop", "workstation")); lost != 0 {
			t.Errorf("rpc dropped %d notification(s) the pump should have taken in time", lost)
		}
		instants := int64(0)
		for _, ev := range tr.Events() {
			if ev.Cat == "gram" && ev.Name == "dropped-event" {
				instants++
			}
		}
		if instants != dropped {
			t.Errorf("%d dropped-event instants for %d drops", instants, dropped)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestUntracedPhaseRecordBuildsNothing: a submit records four phases, and
// with no tracer attached each used to build its
// span context — a sanitised segment and a path concatenation — for a
// nil-safe call to throw away.
func TestUntracedPhaseRecordBuildsNothing(t *testing.T) {
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	origin := net.AddHost("origin")
	registry := gsi.NewRegistry()
	server, err := StartServer(lrm.NewMachine(origin, 4, lrm.Config{}), ServerConfig{
		Credential: registry.Issue("host/origin"),
		Registry:   registry,
	})
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	ctx := trace.NewRequest("r1").Child("submit")
	if allocs := testing.AllocsPerRun(100, func() {
		server.record(ctx, "origin/job1", "initgroups", time.Second, 2*time.Second)
	}); allocs != 0 {
		t.Errorf("one phase record on an untraced network allocated %v times, want 0", allocs)
	}
	tr := trace.New(sim)
	net.SetTracer(tr)
	server.record(ctx, "origin/job1", "initgroups", time.Second, 2*time.Second)
	if evs := tr.Events(); len(evs) != 1 || evs[0].Name != "initgroups" || evs[0].Span != "req/submit/initgroups" {
		t.Errorf("the same record with a tracer attached emitted %+v", evs)
	}
}
