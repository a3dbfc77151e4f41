package federation

import (
	"testing"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mds"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
)

// TestLostCancelReclaimedUnderEveryOwner loses one cancel under each of the
// three owners a co-allocation can have — a bare controller (the DST duroc
// driver's setup), a broker, and a federation replica that crashes and
// leaves the orphan to its peer — and checks that the processors come back
// once the resource manager is reachable again. The subjob runs "hold",
// which never checks in and keeps its processors for an hour, so only a
// landed cancel frees them. Each case hangs the machine at 60 s, so the
// cancel issued when the co-allocation is given up at about 100 s is sent
// into silence and times out, and heals it at 250 s.
func TestLostCancelReclaimedUnderEveryOwner(t *testing.T) {
	const procs = 8
	const end = 8 * time.Minute
	cfgFor := func(g *grid.Grid) core.ControllerConfig {
		return core.ControllerConfig{Credential: g.UserCred, Registry: g.Registry}
	}
	request := broker.Request{
		Tenant:        "t",
		Sites:         1,
		ProcsPerSite:  procs,
		Executable:    "hold",
		CommitTimeout: time.Minute,
		Key:           "lost",
	}
	noRetry := broker.RetryPolicy{MaxAttempts: 1, Default: broker.ClassDecision{Retry: false}}
	// submit offers the request to a broker at 40 s and waits for its
	// answer, which must be a failure.
	submit := func(t *testing.T, g *grid.Grid, to transport.Addr) {
		g.Sim.SleepUntil(40 * time.Second)
		c, err := broker.DialCtx(g.Workstation, to, trace.NewRequest("lost"))
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		if reply, err := c.Submit(request, 0); err != nil || reply.OK() {
			t.Errorf("Submit = %+v, %v; want a failed attempt", reply, err)
		}
	}
	cases := []struct {
		name string
		// run builds the owner and drives the request in the main process
		// (so it reports with Errorf, never Fatalf), and returns every
		// controller that could hold the orphan.
		run func(t *testing.T, g *grid.Grid, dir transport.Addr) []*core.Controller
	}{{
		name: "controller",
		run: func(t *testing.T, g *grid.Grid, dir transport.Addr) []*core.Controller {
			ctrl, err := core.NewController(g.Workstation, cfgFor(g))
			if err != nil {
				t.Errorf("NewController: %v", err)
				return nil
			}
			g.Sim.SleepUntil(40 * time.Second)
			job, err := ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{{
				Contact: g.Contact("site00"), Count: procs, Executable: "hold", Type: core.Required,
			}}})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return []*core.Controller{ctrl}
			}
			g.Sim.SleepUntil(100 * time.Second)
			job.Abort("given up")
			return []*core.Controller{ctrl}
		},
	}, {
		name: "broker",
		run: func(t *testing.T, g *grid.Grid, dir transport.Addr) []*core.Controller {
			b, err := broker.New(g.Net.AddHost("broker0"), cfgFor(g), broker.Options{
				Directory: dir, Workers: 1, Retry: noRetry,
			})
			if err != nil {
				t.Errorf("broker.New: %v", err)
				return nil
			}
			submit(t, g, b.Contact())
			return []*core.Controller{b.Controller()}
		},
	}, {
		name: "federation",
		run: func(t *testing.T, g *grid.Grid, dir transport.Addr) []*core.Controller {
			fed, err := New(g.Net, cfgFor(g), Options{
				Replicas:  2,
				Directory: dir,
				Broker:    broker.Options{Workers: 1, Retry: noRetry},
			})
			if err != nil {
				t.Errorf("federation.New: %v", err)
				return nil
			}
			submit(t, g, fed.Replica(0).BrokerContact())
			// The replica that drove the attempt holds the orphan: let the
			// journal carry it to the peer, then crash the owner before its
			// own first retry can land.
			g.Sim.SleepUntil(150 * time.Second)
			var owner *Replica
			for _, r := range fed.Replicas() {
				if r.Brokers()[0].Controller().OrphansPending() > 0 {
					owner = r
				}
			}
			if owner == nil {
				t.Error("no replica recorded the orphan")
				return nil
			}
			owner.Crash()
			g.Sim.SleepUntil(end)
			reaped := 0
			for _, e := range fed.MergedJournal() {
				if e.State == StateOpen {
					t.Errorf("entry %s (owner %s) still open", e.Key, e.Owner)
				}
				if e.Kind == KindOrphan && e.State == StateReaped && e.Owner != owner.Name() {
					reaped++
				}
			}
			if reaped != 1 {
				t.Errorf("%d orphan entries reaped by the live peer, want 1", reaped)
			}
			var ctrls []*core.Controller
			for _, r := range fed.Replicas() {
				for _, b := range r.Brokers() {
					ctrls = append(ctrls, b.Controller())
				}
			}
			return ctrls
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := grid.New(grid.Options{Seed: 1, Trace: true})
			dirHost := g.Net.AddHost("mds0")
			if _, err := mds.NewServer(dirHost, 0); err != nil {
				t.Fatalf("mds.NewServer: %v", err)
			}
			dir := transport.Addr{Host: "mds0", Service: mds.ServiceName}
			// A batch machine accounts for its processors; a fork one does not.
			m := g.AddMachine("site00", procs, lrm.Batch)
			mds.Publish(m, dir, g.Contact("site00"), 31*time.Second, procs)
			m.RegisterExecutable("hold", func(p *lrm.Proc) error {
				return p.Work(time.Hour, time.Hour)
			})
			var ctrls []*core.Controller
			err := g.Sim.Run("main", func() {
				g.Sim.AfterFunc(60*time.Second, func() { m.Host().Hang() })
				g.Sim.AfterFunc(250*time.Second, func() { m.Host().Restore() })
				ctrls = tc.run(t, g, dir)
				g.Sim.SleepUntil(end)
			})
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			recorded := g.Counters.Get(trace.Key("duroc", "orphan", "record", "workstation")) +
				g.Counters.Get(trace.Key("duroc", "orphan", "record", "broker0")) +
				g.Counters.Get(trace.Key("duroc", "orphan", "record", "fed00")) +
				g.Counters.Get(trace.Key("duroc", "orphan", "record", "fed01"))
			if recorded != 1 {
				t.Errorf("orphans recorded = %d, want 1 (the cancel must be lost)", recorded)
			}
			if free, live := m.FreeProcessors(), m.LiveJobs(); free != procs || live != 0 {
				t.Errorf("%d of %d processors free and %d jobs live at the end, want all free and none live", free, procs, live)
			}
			for _, c := range ctrls {
				if n := c.OrphansPending(); n != 0 {
					t.Errorf("controller on %s reports %d orphans pending, want 0", c.Contact().Host, n)
				}
			}
		})
	}
}
