package workload

import (
	"errors"
	"fmt"
	"slices"
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

// TestEveryFaultKind schedules each kind of FaultKinds alone on an
// unbrokered, a lone-broker and a 2-replica testbed, as each applies, and
// probes what it strikes a second before At, at At, late in the window and
// at At+Dur: the onset lands at At and lasts, the heal lands at At+Dur, and
// Run returns no earlier than the heal plus Drain. A kind without a probe
// fails. A partition is probed from its Target2, the front host when empty.
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
	type kindCase struct {
		fault   Fault
		fedOnly bool
		probe   func(tb *Testbed, front, target string) string
		want    [3]string // before At, from At on, at At+Dur
	}
	kinds := []kindCase{
		{Fault{Kind: "hang", Target: machine}, false, hostState,
			[3]string{"up", "down", "up"}},
		{Fault{Kind: "slow", Target: machine, Factor: 25}, false, startupFactor,
			[3]string{"x1", "x25", "x1"}},
		{Fault{Kind: "partition", Target: machine}, false, partitioned,
			[3]string{"connected", "partitioned from FRONT", "connected"}},
		{Fault{Kind: "partition", Target: machine, Target2: "site00"}, false, partitioned,
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
	for _, kind := range FaultKinds {
		if !slices.ContainsFunc(kinds, func(k kindCase) bool { return k.fault.Kind == kind }) {
			t.Errorf("fault kind %q has no probe", kind)
		}
	}
	for _, bed := range testbeds {
		for _, k := range kinds {
			if k.fedOnly && bed.spec.Replicas == 0 {
				continue
			}
			name, front := bed.name+"/"+k.fault.Kind, bed.front
			if k.fault.Target2 != "" {
				name, front = name+"-target2", k.fault.Target2
			}
			t.Run(name, func(t *testing.T) {
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
							got[i] = k.probe(tb, front, machine)
						}
					})
				}
				if _, err := tb.Run(load, nil); err != nil {
					t.Fatal(err)
				}
				want := [4]string{k.want[0], k.want[1], k.want[1], k.want[2]}
				for i := range want {
					want[i] = strings.ReplaceAll(want[i], "FRONT", front)
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

// TestBadFaultListIsAnError: every fault list CheckFaults refuses is Run's
// error before anything is scheduled, never a panic (two overlapping
// crashes of one machine restarted it twice) or a silent no-op (a crash of
// no machine); the lists beside them pass.
func TestBadFaultListIsAnError(t *testing.T) {
	crash := Fault{Kind: "crash", Target: "site01", At: 10 * time.Second, Dur: 20 * time.Second}
	for _, c := range []struct {
		name   string
		faults []Fault
		ok     bool
	}{
		{"an unknown kind", []Fault{{Kind: "machine-restart", Target: "site01", At: time.Second}}, false},
		{"a crash of no machine", []Fault{{Kind: "crash", Target: "nosuch", At: time.Second}}, false},
		{"a negative time", []Fault{{Kind: "crash", Target: "site01", At: -5 * time.Second}}, false},
		{"a negative duration", []Fault{{Kind: "hang", Target: "site01", At: time.Second, Dur: -time.Second}}, false},
		{"a slowdown below 0", []Fault{{Kind: "slow", Target: "site01", Factor: -3}}, false},
		{"a slowdown below 1", []Fault{{Kind: "slow", Target: "site01", Factor: 0.5}}, false},
		{"a revocation with a target", []Fault{{Kind: "revoke", Target: "site01"}}, false},
		{"a broker crash with no federation", []Fault{{Kind: "broker-crash", Target: "fed00", At: time.Second}}, false},
		{"a target2 on a crash", []Fault{{Kind: "crash", Target: "site01", Target2: "site00"}}, false},
		{"a partition from itself", []Fault{{Kind: "partition", Target: "site01", Target2: "site01"}}, false},
		{"a partition from no host", []Fault{{Kind: "partition", Target: "site01", Target2: "nosuch"}}, false},
		{"overlapping crashes", []Fault{crash, {Kind: "crash", Target: "site01", At: 15 * time.Second, Dur: time.Second}}, false},
		{"a down as the crash heals", []Fault{crash, {Kind: "down", Target: "site01", At: 30 * time.Second, Dur: time.Second}}, false},
		{"a crash after one that never heals", []Fault{{Kind: "crash", Target: "site01", At: time.Second},
			{Kind: "crash", Target: "site01", At: time.Hour, Dur: time.Second}}, false},
		{"one partition both ways", []Fault{{Kind: "partition", Target: "site00", Target2: "site01", At: time.Second, Dur: time.Minute},
			{Kind: "partition", Target: "site01", Target2: "site00", At: 30 * time.Second, Dur: time.Minute}}, false},
		{"one partition from the front host, named and not", []Fault{{Kind: "partition", Target: "site01", At: time.Second, Dur: time.Minute},
			{Kind: "partition", Target: "workstation", Target2: "site01", At: 30 * time.Second, Dur: time.Minute}}, false},
		{"one crash after the other", []Fault{crash, {Kind: "crash", Target: "site01", At: 31 * time.Second, Dur: time.Second}}, true},
		{"a crash and a hang on two machines", []Fault{crash, {Kind: "hang", Target: "site00", At: 10 * time.Second, Dur: 20 * time.Second}}, true},
		{"a partition beside a crash of one end", []Fault{crash, {Kind: "partition", Target: "site01", Target2: "site00", At: 10 * time.Second}}, true},
		{"two partitions from one machine", []Fault{{Kind: "partition", Target: "site01", At: time.Second},
			{Kind: "partition", Target: "site01", Target2: "site00", At: time.Second}}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := NewTestbed(Spec{Seed: 5, Machines: BatchSites(2, 8)})
			if _, err := tb.Run(Load{Faults: c.faults}, nil); (err == nil) != c.ok {
				t.Errorf("Run() = %v", err)
			}
		})
	}
}
