package failure_test

import (
	"testing"
	"time"

	"cogrid/internal/failure"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
)

func TestApplySchedulesActions(t *testing.T) {
	g := grid.New(grid.Options{})
	g.AddMachine("m1", 8, lrm.Fork)
	g.AddMachine("m2", 8, lrm.Fork)
	plan := failure.Plan{
		{At: 10 * time.Second, Kind: failure.MachineDown, Target: "m1"},
		{At: 20 * time.Second, Kind: failure.MachineUp, Target: "m1"},
		{At: 30 * time.Second, Kind: failure.MachineSlow, Target: "m2", Factor: 5},
		{At: 40 * time.Second, Kind: failure.HostHang, Target: "m2"},
		{At: 50 * time.Second, Kind: failure.HostRestore, Target: "m2"},
		{At: 60 * time.Second, Kind: failure.Partition, Target: "workstation", Target2: "m1"},
		{At: 70 * time.Second, Kind: failure.Heal, Target: "workstation", Target2: "m1"},
		{At: 80 * time.Second, Kind: failure.RevokeUser, Target: grid.DefaultUser},
		{At: 90 * time.Second, Kind: failure.ReinstateUser, Target: grid.DefaultUser},
	}
	plan.Apply(g)
	m1 := g.Machine("m1")
	g.RegisterEverywhere("noop", func(p *lrm.Proc) error { return nil })
	err := g.Sim.Run("main", func() {
		g.Sim.SleepUntil(15 * time.Second)
		if _, err := m1.Submit(lrm.JobSpec{Executable: "noop", Count: 1}); err == nil {
			t.Error("submit succeeded while machine down")
		}
		g.Sim.SleepUntil(25 * time.Second)
		if _, err := m1.Submit(lrm.JobSpec{Executable: "noop", Count: 1}); err != nil {
			t.Errorf("submit after machine-up: %v", err)
		}
		g.Sim.SleepUntil(45 * time.Second)
		if g.Net.Host("m2").Up() {
			t.Error("m2 not hung at t=45s")
		}
		g.Sim.SleepUntil(55 * time.Second)
		if !g.Net.Host("m2").Up() {
			t.Error("m2 not restored at t=55s")
		}
		g.Sim.SleepUntil(65 * time.Second)
		if !g.Net.Partitioned("workstation", "m1") {
			t.Error("partition not applied")
		}
		g.Sim.SleepUntil(75 * time.Second)
		if g.Net.Partitioned("workstation", "m1") {
			t.Error("partition not healed")
		}
		g.Sim.SleepUntil(95 * time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCrashIsTerminal(t *testing.T) {
	g := grid.New(grid.Options{})
	g.AddMachine("victim", 8, lrm.Fork)
	failure.Plan{{At: time.Second, Kind: failure.HostCrash, Target: "victim"}}.Apply(g)
	err := g.Sim.Run("main", func() {
		g.Sim.SleepUntil(2 * time.Second)
		if g.Net.Host("victim").Up() {
			t.Error("victim up after crash")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSortedOrdersByTime(t *testing.T) {
	p := failure.Plan{
		{At: 30 * time.Second, Kind: failure.HostCrash, Target: "c"},
		{At: 10 * time.Second, Kind: failure.HostCrash, Target: "a"},
		{At: 20 * time.Second, Kind: failure.HostCrash, Target: "b"},
	}
	s := p.Sorted()
	if s[0].Target != "a" || s[1].Target != "b" || s[2].Target != "c" {
		t.Fatalf("sorted = %v", s)
	}
	// Original untouched.
	if p[0].Target != "c" {
		t.Fatal("Sorted mutated the plan")
	}
}
