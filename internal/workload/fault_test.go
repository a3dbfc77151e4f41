package workload

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cogrid/internal/lrm"
)

// Probes read what a fault strikes from inside the simulation. Each takes
// the testbed, the partition's front host and the fault's machine.

func hostState(tb *Testbed, _, target string) string {
	if tb.Grid.Machine(target).Host().Up() {
		return "up"
	}
	return "down"
}

// startupFactor times one single-process job from submission to exit: the
// process's startup, in multiples of the machine's normal startup.
func startupFactor(tb *Testbed, _, target string) string {
	sim := tb.Grid.Sim
	start := sim.Now()
	job, err := tb.Grid.Machine(target).Submit(lrm.JobSpec{Executable: "exit", Count: 1})
	if err != nil {
		return err.Error()
	}
	job.Done().Wait()
	return fmt.Sprintf("x%.0f", float64(sim.Now()-start)/float64(lrm.DefaultCosts.ProcStartup))
}

func partitioned(tb *Testbed, front, target string) string {
	if tb.Grid.Net.Partitioned(front, target) {
		return "partitioned from " + front
	}
	return "connected"
}

func resourceManager(tb *Testbed, _, target string) string {
	_, err := tb.Grid.Machine(target).Submit(lrm.JobSpec{Executable: "no-such-executable", Count: 1})
	if errors.Is(err, lrm.ErrMachineDown) {
		return "down"
	}
	return "accepting"
}

// gatekeeper reports whether the machine's host is up and a GRAM client can
// authenticate to it, and how many LRM jobs the machine still holds.
func gatekeeper(tb *Testbed, _, target string) string {
	m := tb.Grid.Machine(target)
	if !m.Host().Up() {
		return fmt.Sprintf("crashed, %d live job(s)", m.LiveJobs())
	}
	c, err := tb.Grid.Dial(target)
	if err != nil {
		return err.Error()
	}
	c.Close()
	return fmt.Sprintf("serving, %d live job(s)", m.LiveJobs())
}

func credential(tb *Testbed, _, target string) string {
	c, err := tb.Grid.Dial(target)
	if err != nil {
		if strings.Contains(err.Error(), "revoked") {
			return "revoked"
		}
		return err.Error()
	}
	c.Close()
	return "valid"
}

func replicaState(tb *Testbed, _, _ string) string {
	if tb.Fed.Replica(1).Alive() {
		return "alive"
	}
	return "dead"
}

// TestEveryFaultKind schedules each fault kind alone on an unbrokered, a
// lone-broker and a 2-replica testbed, as each applies, and probes what it
// strikes a second before At, at At, late in the window and at At+Dur: the
// onset lands at At and lasts, the heal lands at At+Dur, and Run returns no
// earlier than the heal plus Drain.
func TestEveryFaultKind(t *testing.T) {
	const (
		at, dur, drain = 40 * time.Second, time.Minute, 5 * time.Second
		machine        = "site01"
	)
	testbeds := []struct {
		name, front string
		spec        Spec
	}{
		{"unbrokered", "workstation", Spec{Seed: 5, Machines: BatchSites(2, 8)}},
		{"broker", "broker0", smallSpec(0)},
		{"replicas", "fed00", smallSpec(2)},
	}
	kinds := []struct {
		fault   Fault
		fedOnly bool
		probe   func(tb *Testbed, front, target string) string
		want    [3]string // before At, from At on, at At+Dur
	}{
		{Fault{Kind: "hang", Target: machine}, false, hostState,
			[3]string{"up", "down", "up"}},
		{Fault{Kind: "slow", Target: machine, Factor: 25}, false, startupFactor,
			[3]string{"x1", "x25", "x1"}},
		{Fault{Kind: "partition", Target: machine}, false, partitioned,
			[3]string{"connected", "partitioned from FRONT", "connected"}},
		{Fault{Kind: "down", Target: machine}, false, resourceManager,
			[3]string{"accepting", "down", "accepting"}},
		{Fault{Kind: "crash", Target: machine}, false, gatekeeper,
			[3]string{"serving, 1 live job(s)", "crashed, 1 live job(s)", "serving, 1 live job(s)"}},
		{Fault{Kind: "revoke"}, false, credential,
			[3]string{"valid", "revoked", "valid"}},
		{Fault{Kind: "broker-crash", Target: "fed01"}, true, replicaState,
			[3]string{"alive", "dead", "alive"}},
	}
	for _, bed := range testbeds {
		for _, k := range kinds {
			if k.fedOnly && bed.spec.Replicas == 0 {
				continue
			}
			t.Run(bed.name+"/"+k.fault.Kind, func(t *testing.T) {
				tb := NewTestbed(bed.spec)
				m := tb.Grid.Machine(machine)
				m.RegisterExecutable("exit", func(*lrm.Proc) error { return nil })
				m.RegisterExecutable("hold", func(p *lrm.Proc) error { return p.Work(time.Hour, time.Minute) })
				f := k.fault
				f.At, f.Dur = at, dur
				var got [4]string
				sim := tb.Grid.Sim
				load := Load{Faults: []Fault{f}, Drain: drain}
				load.Before = func() {
					sim.GoDaemon("probe", func() {
						if _, err := m.Submit(lrm.JobSpec{Executable: "hold", Count: 1}); err != nil {
							t.Errorf("hold job: %v", err)
						}
						// Late, not last: a slowed startup takes 19 s to measure.
						for i, when := range []time.Duration{at - time.Second, at, at + dur - 20*time.Second, at + dur} {
							sim.SleepUntil(when)
							got[i] = k.probe(tb, bed.front, machine)
						}
					})
				}
				if _, err := tb.Run(load, nil); err != nil {
					t.Fatal(err)
				}
				want := [4]string{k.want[0], k.want[1], k.want[1], k.want[2]}
				for i := range want {
					want[i] = strings.ReplaceAll(want[i], "FRONT", bed.front)
				}
				if got != want {
					t.Errorf("before At, at At, late in the window, at At+Dur: got %q, want %q", got, want)
				}
				if end := sim.Now(); end < at+dur+drain {
					t.Errorf("Run returned at %v, before the heal at %v plus Drain %v", end, at+dur, drain)
				}
			})
		}
	}
}
