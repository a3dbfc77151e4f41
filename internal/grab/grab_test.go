package grab_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grab"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
)

type rig struct {
	g      *grid.Grid
	broker *grab.Broker

	mu        sync.Mutex
	proceeded int
	aborted   int
}

func newRig(t *testing.T, machines ...string) *rig {
	t.Helper()
	g := grid.New(grid.Options{})
	r := &rig{g: g}
	for _, name := range machines {
		g.AddMachine(name, 64, lrm.Fork)
	}
	g.RegisterEverywhere("app", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.Barrier(true, "", 0); err != nil {
			if errors.Is(err, core.ErrBarrierAbort) {
				r.mu.Lock()
				r.aborted++
				r.mu.Unlock()
				return nil
			}
			return err
		}
		r.mu.Lock()
		r.proceeded++
		r.mu.Unlock()
		return p.Work(time.Second, time.Second)
	})
	broker, err := grab.NewBroker(g.Workstation, grab.Config{
		Credential: g.UserCred,
		Registry:   g.Registry,
	})
	if err != nil {
		t.Fatalf("NewBroker: %v", err)
	}
	r.broker = broker
	return r
}

func (r *rig) spec(machine string, count int) core.SubjobSpec {
	return core.SubjobSpec{
		Contact:    r.g.Contact(machine),
		Count:      count,
		Executable: "app",
		Label:      machine,
	}
}

func TestAtomicAllocationSucceeds(t *testing.T) {
	r := newRig(t, "m1", "m2", "m3")
	err := r.g.Sim.Run("agent", func() {
		alloc, err := r.broker.Allocate(core.Request{Subjobs: []core.SubjobSpec{
			r.spec("m1", 4), r.spec("m2", 4), r.spec("m3", 8),
		}})
		if err != nil {
			t.Errorf("Allocate: %v", err)
			return
		}
		defer alloc.Close()
		if alloc.Config.WorldSize != 16 || alloc.Config.NSubjobs != 3 {
			t.Errorf("config = %+v", alloc.Config)
		}
		if len(alloc.Config.AddressBook()) != 16 {
			t.Errorf("address book size = %d", len(alloc.Config.AddressBook()))
		}
		r.g.Sim.Sleep(5 * time.Second) // let the app run
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.proceeded != 16 {
		t.Fatalf("%d proceeded, want 16", r.proceeded)
	}
}

func TestAtomicAllocationAllOrNothing(t *testing.T) {
	// The defining property: one dead machine means nothing is acquired.
	r := newRig(t, "m1", "m2", "dead")
	r.g.Machine("dead").SetDown(true)
	err := r.g.Sim.Run("agent", func() {
		_, err := r.broker.Allocate(core.Request{Subjobs: []core.SubjobSpec{
			r.spec("m1", 4), r.spec("m2", 4), r.spec("dead", 4),
		}})
		if !errors.Is(err, grab.ErrAllocationFailed) {
			t.Errorf("Allocate = %v, want ErrAllocationFailed", err)
		}
		if err != nil && !strings.Contains(err.Error(), "dead") {
			t.Errorf("error %q does not name the failed subjob", err)
		}
		r.g.Sim.Sleep(5 * time.Second) // let aborts propagate
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.proceeded != 0 {
		t.Fatalf("%d processes proceeded despite failed transaction", r.proceeded)
	}
	// m1 and m2 checked in before the dead machine's failure was known:
	// their processes must have been released with an abort.
	if r.aborted != 8 {
		t.Fatalf("%d processes saw abort, want 8", r.aborted)
	}
}

func TestAtomicAllocationTimesOutOnSlowMachine(t *testing.T) {
	// The failure mode that motivated DUROC: a slow machine stalls the
	// whole transaction until the timeout aborts everything.
	g := grid.New(grid.Options{})
	for _, name := range []string{"m1", "slow"} {
		g.AddMachine(name, 64, lrm.Fork)
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
		return nil
	})
	g.Machine("slow").SetSlowFactor(10000)
	broker, err := grab.NewBroker(g.Workstation, grab.Config{
		Credential:     g.UserCred,
		Registry:       g.Registry,
		StartupTimeout: time.Minute,
	})
	if err != nil {
		t.Fatalf("NewBroker: %v", err)
	}
	err = g.Sim.Run("agent", func() {
		start := g.Sim.Now()
		_, err := broker.Allocate(core.Request{Subjobs: []core.SubjobSpec{
			{Contact: g.Contact("m1"), Count: 4, Executable: "app", Label: "m1"},
			{Contact: g.Contact("slow"), Count: 4, Executable: "app", Label: "slow"},
		}})
		if !errors.Is(err, grab.ErrTimeout) {
			t.Errorf("Allocate = %v, want ErrTimeout", err)
		}
		if took := g.Sim.Now() - start; took > 2*time.Minute {
			t.Errorf("abort took %v", took)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestAtomicAllocationAppStartupFailure(t *testing.T) {
	r := newRig(t, "m1", "m2")
	r.g.RegisterEverywhere("badstart", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		rt.Barrier(false, "insufficient disk space", 0)
		return nil
	})
	err := r.g.Sim.Run("agent", func() {
		_, err := r.broker.Allocate(core.Request{Subjobs: []core.SubjobSpec{
			r.spec("m1", 4),
			{Contact: r.g.Contact("m2"), Count: 2, Executable: "badstart", Label: "m2"},
		}})
		if !errors.Is(err, grab.ErrAllocationFailed) {
			t.Errorf("Allocate = %v, want ErrAllocationFailed", err)
		}
		if err != nil && !strings.Contains(err.Error(), "unsuccessful startup") {
			t.Errorf("error %q lacks the application's report", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestEmptyRequestRejected(t *testing.T) {
	r := newRig(t, "m1")
	if _, err := r.broker.Allocate(core.Request{}); err == nil {
		t.Fatal("empty request accepted")
	}
	_ = r.g.Sim.Run("noop", func() {})
}

func TestKillCancelsSubjobs(t *testing.T) {
	r := newRig(t, "m1")
	r.g.RegisterEverywhere("longapp", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.Barrier(true, "", 0); err != nil {
			return nil
		}
		return p.Work(time.Hour, time.Second)
	})
	err := r.g.Sim.Run("agent", func() {
		alloc, err := r.broker.Allocate(core.Request{Subjobs: []core.SubjobSpec{
			{Contact: r.g.Contact("m1"), Count: 4, Executable: "longapp", Label: "m1"},
		}})
		if err != nil {
			t.Errorf("Allocate: %v", err)
			return
		}
		r.g.Sim.Sleep(5 * time.Second)
		alloc.Kill()
		alloc.Close()
		machine := r.g.Machine("m1")
		r.g.Sim.Sleep(5 * time.Second)
		info := machine.QueueInfo()
		_ = info // fork mode: no queue; verify no panic and time passed
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestGoldenConfig pins what the six processes of one fixed 2 × 3 request
// are told under GRAB, field for field: the broker answers check-ins with
// core's reply type and release, and applications must not see the
// difference.
func TestGoldenConfig(t *testing.T) {
	r := newRig(t, "m1", "m2")
	var mu sync.Mutex
	var got []core.Config
	r.g.RegisterEverywhere("record", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		cfg, err := rt.Barrier(true, "", 0)
		if err != nil {
			return err
		}
		mu.Lock()
		got = append(got, *cfg)
		mu.Unlock()
		return nil
	})
	err := r.g.Sim.Run("agent", func() {
		m1, m2 := r.spec("m1", 3), r.spec("m2", 3)
		m1.Executable, m2.Executable = "record", "record"
		alloc, err := r.broker.Allocate(core.Request{Subjobs: []core.SubjobSpec{m1, m2}})
		if err != nil {
			t.Errorf("Allocate: %v", err)
			return
		}
		defer alloc.Close()
		r.g.Sim.Sleep(5 * time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	sort.Slice(got, func(a, b int) bool { return got[a].MyRank < got[b].MyRank })
	if len(got) != 6 {
		t.Fatalf("%d processes proceeded, want 6", len(got))
	}
	for rank, cfg := range got {
		want := fmt.Sprintf(`{"n_subjobs":2,"subjob_sizes":[3,3],"subjob_labels":["m1","m2"],"world_size":6,`+
			`"address_book":["m1:app.workstation_grab1.m1.0","m1:app.workstation_grab1.m1.1","m1:app.workstation_grab1.m1.2",`+
			`"m2:app.workstation_grab1.m2.0","m2:app.workstation_grab1.m2.1","m2:app.workstation_grab1.m2.2"],`+
			`"my_subjob":%d,"my_rank":%d}`, rank/3, rank)
		if js, err := json.Marshal(cfg); err != nil || string(js) != want {
			t.Errorf("rank %d was told %s, %v\nwant %s", rank, js, err, want)
		}
		if addr, ok := cfg.Address(rank); !ok || addr != cfg.AddressBook()[rank] {
			t.Errorf("rank %d: Address = %q, %v, the book says %q", rank, addr, ok, cfg.AddressBook()[rank])
		}
	}
}
