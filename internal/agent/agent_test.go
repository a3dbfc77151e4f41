package agent_test

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"cogrid/internal/agent"
	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mds"
	"cogrid/internal/transport"
)

func newRig(t *testing.T, machines ...string) (*grid.Grid, *core.Controller) {
	t.Helper()
	g := grid.New(grid.Options{})
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
			return nil
		}
		return p.Work(time.Second, time.Second)
	})
	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	return g, ctrl
}

func spec(g *grid.Grid, machine string, count int) core.SubjobSpec {
	return core.SubjobSpec{
		Contact:    g.Contact(machine),
		Count:      count,
		Executable: "app",
		Label:      machine,
	}
}

func TestAtomicStrategySucceeds(t *testing.T) {
	g, ctrl := newRig(t, "m1", "m2")
	err := g.Sim.Run("agent", func() {
		res, err := agent.Atomic(ctrl, core.Request{Subjobs: []core.SubjobSpec{
			spec(g, "m1", 4), spec(g, "m2", 4),
		}}, 0)
		if err != nil {
			t.Errorf("Atomic: %v", err)
			return
		}
		if res.Config.WorldSize != 8 {
			t.Errorf("world size = %d", res.Config.WorldSize)
		}
		res.Job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestAtomicStrategyFailsOnAnyFailure(t *testing.T) {
	g, ctrl := newRig(t, "m1", "dead")
	g.Machine("dead").SetDown(true)
	err := g.Sim.Run("agent", func() {
		// Even marked interactive, Atomic forces required semantics.
		req := core.Request{Subjobs: []core.SubjobSpec{
			spec(g, "m1", 4),
			{Contact: g.Contact("dead"), Count: 4, Executable: "app", Type: core.Interactive, Label: "dead"},
		}}
		_, err := agent.Atomic(ctrl, req, 0)
		if !errors.Is(err, core.ErrAborted) {
			t.Errorf("Atomic = %v, want ErrAborted", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSubstitutionReplacesFailures(t *testing.T) {
	g, ctrl := newRig(t, "m1", "bad1", "bad2", "spare1", "spare2")
	g.Machine("bad1").SetDown(true)
	g.Machine("bad2").SetDown(true)
	err := g.Sim.Run("agent", func() {
		req := core.Request{Subjobs: []core.SubjobSpec{
			{Contact: g.Contact("m1"), Count: 4, Executable: "app", Type: core.Required, Label: "m1"},
			{Contact: g.Contact("bad1"), Count: 4, Executable: "app", Type: core.Interactive, Label: "bad1"},
			{Contact: g.Contact("bad2"), Count: 4, Executable: "app", Type: core.Interactive, Label: "bad2"},
		}}
		res, err := agent.WithSubstitution(ctrl, req, agent.SubstituteOptions{
			Pool: []transport.Addr{g.Contact("spare1"), g.Contact("spare2")},
		})
		if err != nil {
			t.Errorf("WithSubstitution: %v", err)
			return
		}
		if res.Substitutions != 2 {
			t.Errorf("substitutions = %d, want 2", res.Substitutions)
		}
		if res.Config.WorldSize != 12 {
			t.Errorf("world size = %d, want 12", res.Config.WorldSize)
		}
		res.Job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSubstitutionDropsWhenPoolExhausted(t *testing.T) {
	g, ctrl := newRig(t, "m1", "bad1")
	g.Machine("bad1").SetDown(true)
	err := g.Sim.Run("agent", func() {
		req := core.Request{Subjobs: []core.SubjobSpec{
			{Contact: g.Contact("m1"), Count: 4, Executable: "app", Type: core.Required, Label: "m1"},
			{Contact: g.Contact("bad1"), Count: 4, Executable: "app", Type: core.Interactive, Label: "bad1"},
		}}
		res, err := agent.WithSubstitution(ctrl, req, agent.SubstituteOptions{
			DropUnreplaceable: true,
		})
		if err != nil {
			t.Errorf("WithSubstitution: %v", err)
			return
		}
		if res.Deleted != 1 {
			t.Errorf("deleted = %d, want 1", res.Deleted)
		}
		if res.Config.WorldSize != 4 {
			t.Errorf("world size = %d, want 4 (reduced fidelity)", res.Config.WorldSize)
		}
		res.Job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSubstitutionAbortsWhenPoolExhaustedAndStrict(t *testing.T) {
	g, ctrl := newRig(t, "m1", "bad1")
	g.Machine("bad1").SetDown(true)
	err := g.Sim.Run("agent", func() {
		req := core.Request{Subjobs: []core.SubjobSpec{
			{Contact: g.Contact("m1"), Count: 4, Executable: "app", Type: core.Required, Label: "m1"},
			{Contact: g.Contact("bad1"), Count: 4, Executable: "app", Type: core.Interactive, Label: "bad1"},
		}}
		_, err := agent.WithSubstitution(ctrl, req, agent.SubstituteOptions{})
		if !errors.Is(err, core.ErrSubjobNotReady) {
			t.Errorf("WithSubstitution = %v, want ErrSubjobNotReady", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSubstitutionTimesOut(t *testing.T) {
	g, ctrl := newRig(t, "m1", "stuck")
	g.RegisterEverywhere("sleeper", func(p *lrm.Proc) error {
		return p.Work(2*time.Hour, time.Second)
	})
	err := g.Sim.Run("agent", func() {
		req := core.Request{Subjobs: []core.SubjobSpec{
			{Contact: g.Contact("m1"), Count: 2, Executable: "app", Type: core.Required, Label: "m1"},
			{Contact: g.Contact("stuck"), Count: 2, Executable: "sleeper", Type: core.Interactive,
				Label: "stuck", StartupTimeout: time.Hour},
		}}
		start := g.Sim.Now()
		_, err := agent.WithSubstitution(ctrl, req, agent.SubstituteOptions{
			CommitTimeout: 3 * time.Minute,
		})
		if !errors.Is(err, core.ErrCommitTimeout) {
			t.Errorf("WithSubstitution = %v, want ErrCommitTimeout", err)
		}
		if took := g.Sim.Now() - start; took < 3*time.Minute || took > 4*time.Minute {
			t.Errorf("timed out after %v, want ~3m", took)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestOverProvisionCommitsFirstK(t *testing.T) {
	g, ctrl := newRig(t, "w1", "w2", "w3", "w4", "w5")
	// Two machines are slower: they check in later and must be the ones
	// terminated before commit.
	g.Machine("w4").SetSlowFactor(20)
	g.Machine("w5").SetSlowFactor(20)
	err := g.Sim.Run("agent", func() {
		req := core.Request{Subjobs: []core.SubjobSpec{
			spec(g, "w1", 4), spec(g, "w2", 4), spec(g, "w3", 4), spec(g, "w4", 4), spec(g, "w5", 4),
		}}
		res, err := agent.OverProvision(ctrl, req, agent.OverProvisionOptions{Needed: 3})
		if err != nil {
			t.Errorf("OverProvision: %v", err)
			return
		}
		if res.Config.NSubjobs != 3 || res.Config.WorldSize != 12 {
			t.Errorf("config = %+v, want 3 subjobs / 12 procs", res.Config)
		}
		if res.Deleted != 2 {
			t.Errorf("deleted = %d, want 2", res.Deleted)
		}
		for _, label := range res.Config.SubjobLabels() {
			if label == "w4" || label == "w5" {
				t.Errorf("slow machine %s committed", label)
			}
		}
		res.Job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestOverProvisionCancelsSurplusAtLRM pins down that the losing subjobs
// are actually terminated at their resource managers — processors
// released, nothing left running or queued — not merely dropped from the
// DUROC job's bookkeeping. A leak here would quietly hold every
// over-provisioned machine for the full run time. Batch machines are used
// because their LRMs account processors and running jobs observably.
func TestOverProvisionCancelsSurplusAtLRM(t *testing.T) {
	g := grid.New(grid.Options{})
	for _, name := range []string{"w1", "w2", "w3", "w4", "w5"} {
		g.AddMachine(name, 64, lrm.Batch)
	}
	g.Machine("w4").SetSlowFactor(20)
	g.Machine("w5").SetSlowFactor(20)
	// A long-running app keeps the winners visibly holding processors
	// while the losers' cancellations are verified.
	g.RegisterEverywhere("holder", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.Barrier(true, "", 0); err != nil {
			return nil
		}
		return p.Work(10*time.Minute, time.Second)
	})
	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	simErr := g.Sim.Run("agent", func() {
		var req core.Request
		for _, name := range []string{"w1", "w2", "w3", "w4", "w5"} {
			req.Subjobs = append(req.Subjobs, core.SubjobSpec{
				Contact: g.Contact(name), Count: 4, Executable: "holder", Label: name,
			})
		}
		res, err := agent.OverProvision(ctrl, req, agent.OverProvisionOptions{Needed: 3})
		if err != nil {
			t.Errorf("OverProvision: %v", err)
			return
		}
		if res.Deleted != 2 {
			t.Errorf("deleted = %d, want 2", res.Deleted)
		}
		committed := make(map[string]bool)
		for _, label := range res.Config.SubjobLabels() {
			committed[label] = true
		}
		// The winners are mid-barrier-release right now: still holding
		// their processors.
		for name := range committed {
			info := g.Machine(name).QueueInfo()
			if info.RunningJobs == 0 || info.FreeProcessors == info.Processors {
				t.Errorf("%s: committed subjob not running at its LRM: %+v", name, info)
			}
		}
		// Give the cancellations a moment to propagate through GRAM to
		// the losing machines, then inspect their LRMs directly.
		g.Sim.Sleep(time.Minute)
		for _, name := range []string{"w1", "w2", "w3", "w4", "w5"} {
			if committed[name] {
				continue
			}
			info := g.Machine(name).QueueInfo()
			if info.RunningJobs != 0 || len(info.QueuedJobs) != 0 {
				t.Errorf("%s: surplus subjob leaked at the LRM: %d running, %d queued",
					name, info.RunningJobs, len(info.QueuedJobs))
			}
			if info.FreeProcessors != info.Processors {
				t.Errorf("%s: %d of %d processors still held after cancellation",
					name, info.Processors-info.FreeProcessors, info.Processors)
			}
		}
		res.Job.Done().Wait()
	})
	if simErr != nil {
		t.Fatalf("sim: %v", simErr)
	}
}

func TestOverProvisionFailsWhenTooFewSurvive(t *testing.T) {
	g, ctrl := newRig(t, "w1", "w2", "w3")
	g.Machine("w2").SetDown(true)
	g.Machine("w3").SetDown(true)
	err := g.Sim.Run("agent", func() {
		req := core.Request{Subjobs: []core.SubjobSpec{
			spec(g, "w1", 4), spec(g, "w2", 4), spec(g, "w3", 4),
		}}
		_, err := agent.OverProvision(ctrl, req, agent.OverProvisionOptions{Needed: 2})
		if !errors.Is(err, core.ErrSubjobNotReady) {
			t.Errorf("OverProvision = %v, want ErrSubjobNotReady", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestOverProvisionValidation(t *testing.T) {
	g, ctrl := newRig(t, "w1")
	req := core.Request{Subjobs: []core.SubjobSpec{spec(g, "w1", 4)}}
	if _, err := agent.OverProvision(ctrl, req, agent.OverProvisionOptions{Needed: 2}); err == nil {
		t.Error("Needed > len(subjobs) accepted")
	}
	if _, err := agent.OverProvision(ctrl, req, agent.OverProvisionOptions{Needed: 0}); err == nil {
		t.Error("Needed 0 accepted")
	}
	_ = g.Sim.Run("noop", func() {})
}

func TestSelectByForecast(t *testing.T) {
	records := []mds.Record{
		{Name: "slowq", ForecastWait: map[int]time.Duration{16: time.Hour}},
		{Name: "fastq", ForecastWait: map[int]time.Duration{16: time.Minute}},
		{Name: "midq", ForecastWait: map[int]time.Duration{16: 10 * time.Minute}},
		{Name: "noinfo"},
	}
	rng := rand.New(rand.NewSource(1))
	// Perfect forecasts: order fastq, midq.
	got := agent.SelectByForecast(records, 16, 2, 0, rng.NormFloat64)
	if len(got) != 2 || got[0].Name != "fastq" || got[1].Name != "midq" {
		t.Fatalf("perfect selection = %v", names(got))
	}
	// k larger than pool clips.
	all := agent.SelectByForecast(records, 16, 10, 0, rng.NormFloat64)
	if len(all) != 4 {
		t.Fatalf("clipped selection = %d records", len(all))
	}
	if all[3].Name != "noinfo" {
		t.Errorf("record without forecast should sort last, got %v", names(all))
	}
	// Heavy noise: with many trials, the perfect order must sometimes be
	// violated, otherwise the noise parameter does nothing.
	violated := false
	for i := 0; i < 50 && !violated; i++ {
		noisy := agent.SelectByForecast(records, 16, 2, 3.0, rng.NormFloat64)
		if noisy[0].Name != "fastq" {
			violated = true
		}
	}
	if !violated {
		t.Error("sigma 3.0 never changed the selection in 50 trials")
	}
}

func names(recs []mds.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Name
	}
	return out
}
