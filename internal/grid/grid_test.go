package grid_test

import (
	"testing"
	"time"

	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/trace"
)

func TestNewGridHasWorkstationAndNIS(t *testing.T) {
	g := grid.New(grid.Options{})
	if g.Workstation == nil || g.Workstation.Name() != "workstation" {
		t.Fatal("missing workstation")
	}
	if g.Net.Host("nis0") == nil {
		t.Fatal("missing NIS host")
	}
	if g.UserCred.Name != grid.DefaultUser {
		t.Fatalf("user = %q", g.UserCred.Name)
	}
}

func TestAddMachineAndDial(t *testing.T) {
	g := grid.New(grid.Options{})
	m := g.AddMachine("origin", 64, lrm.Fork)
	if m.Processors() != 64 || m.Mode() != lrm.Fork {
		t.Fatalf("machine = %d procs %v", m.Processors(), m.Mode())
	}
	if g.Machine("origin") != m {
		t.Fatal("Machine lookup failed")
	}
	if g.Machine("nope") != nil {
		t.Fatal("missing machine lookup returned non-nil")
	}
	if got := g.Contact("origin").String(); got != "origin:gram" {
		t.Fatalf("contact = %q", got)
	}
	m.RegisterExecutable("noop", func(p *lrm.Proc) error { return nil })
	err := g.Sim.Run("client", func() {
		c, err := g.Dial("origin")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		if _, err := c.Submit(`&(executable=noop)(count=1)`); err != nil {
			t.Errorf("Submit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestAddMachineDuplicatePanics(t *testing.T) {
	g := grid.New(grid.Options{})
	g.AddMachine("dup", 4, lrm.Fork)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddMachine did not panic")
		}
	}()
	g.AddMachine("dup", 4, lrm.Fork)
}

func TestRegisterEverywhere(t *testing.T) {
	g := grid.New(grid.Options{})
	a := g.AddMachine("a", 4, lrm.Fork)
	b := g.AddMachine("b", 4, lrm.Fork)
	g.RegisterEverywhere("x", func(p *lrm.Proc) error { return nil })
	err := g.Sim.Run("main", func() {
		for _, m := range []*lrm.Machine{a, b} {
			if _, err := m.Submit(lrm.JobSpec{Executable: "x", Count: 1}); err != nil {
				t.Errorf("%s: %v", m.Name(), err)
			}
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestMachinesLists(t *testing.T) {
	g := grid.New(grid.Options{})
	g.AddMachine("b", 4, lrm.Fork)
	g.AddMachine("a", 4, lrm.Fork)
	names := g.Machines() // sorted, whatever order they were added in
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Machines = %v", names)
	}
}

// A traced grid needs nothing else to yield the Figure 3 breakdown: the
// gatekeeper's phases are in the trace.
func TestTracedGridRecordsPhases(t *testing.T) {
	g := grid.New(grid.Options{Trace: true})
	g.AddMachine("m", 4, lrm.Fork)
	g.RegisterEverywhere("noop", func(p *lrm.Proc) error { return nil })
	err := g.Sim.Run("client", func() {
		c, err := g.Dial("m")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		if _, err := c.Submit(`&(executable=noop)(count=1)`); err != nil {
			t.Errorf("Submit: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	totals := trace.DeriveTimeline(g.Tracer.Events(), trace.IsPhase).PhaseTotals()
	for _, phase := range []string{"authentication", "misc", "initgroups", "fork"} {
		if totals[phase] <= 0 {
			t.Errorf("phase %q missing from the traced submit: %v", phase, totals)
		}
	}
	if len(totals) != 4 {
		t.Errorf("phases = %v, want the gatekeeper's four", totals)
	}
}

func TestCustomLatency(t *testing.T) {
	g := grid.New(grid.Options{Latency: 10 * time.Millisecond})
	g.AddMachine("far", 4, lrm.Fork)
	err := g.Sim.Run("client", func() {
		start := g.Sim.Now()
		if _, err := g.Workstation.Dial(g.Contact("far")); err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		if rtt := g.Sim.Now() - start; rtt != 20*time.Millisecond {
			t.Errorf("dial RTT = %v, want 20ms", rtt)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
