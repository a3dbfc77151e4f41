package experiments

import (
	"bytes"
	"testing"
	"time"

	"cogrid/internal/trace"
)

// tinyChaosConfig keeps the chaos study small enough for the test gate
// while still injecting faults at the top rate. Seed 3 is chosen so the
// chaotic row exercises the full orphan pipeline: a host crash strands
// committed subjobs, a later machine-restart brings the gatekeeper back,
// and the reaper confirms every cancellation.
func tinyChaosConfig() ChaosConfig { return SLOSmokeConfig(3).Chaos }

func TestChaosStudySmoke(t *testing.T) {
	res := ChaosStudy(tinyChaosConfig())
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	calm, chaotic := res.Rows[0], res.Rows[1]
	if calm.Faults != 0 {
		t.Errorf("fault-free row injected %d faults", calm.Faults)
	}
	if calm.Completed != calm.Requests {
		t.Errorf("fault-free row: %d/%d completed; row = %+v",
			calm.Completed, calm.Requests, calm)
	}
	if chaotic.Faults == 0 {
		t.Errorf("fault rate 0.75 injected no faults")
	}
	if chaotic.OrphansRecorded == 0 {
		t.Errorf("chaotic row exercised no orphans; pick a different seed")
	}
	for i, row := range res.Rows {
		if row.Completed+row.Failed != row.Requests {
			t.Errorf("row %d: completed %d + failed %d != requests %d",
				i, row.Completed, row.Failed, row.Requests)
		}
		// The resilience criterion: whatever the faults did, nothing may
		// keep holding processors, and every recorded orphan must have
		// been confirmed cancelled at its resource manager.
		if row.LeakedJobs != 0 {
			t.Errorf("row %d: %d leaked jobs after quiescence", i, row.LeakedJobs)
		}
		if row.OrphansRecorded != row.OrphansReaped {
			t.Errorf("row %d: orphans recorded %d != reaped %d",
				i, row.OrphansRecorded, row.OrphansReaped)
		}
	}
	if tbl := res.Table().String(); tbl == "" {
		t.Errorf("empty table")
	}
}

func TestChaosDeterminism(t *testing.T) {
	// Two same-seed chaos runs must agree byte for byte on the counter
	// registry and the full trace export — fault injection, substitution,
	// watchdog, and reaping included.
	cfg := tinyChaosConfig()
	row1, g1 := ChaosRun(cfg, 0.75)
	row2, g2 := ChaosRun(cfg, 0.75)
	if row1 != row2 {
		t.Errorf("rows differ:\n  %+v\n  %+v", row1, row2)
	}
	if c1, c2 := g1.Counters.String(), g2.Counters.String(); c1 != c2 {
		t.Errorf("counter registries differ:\n--- run1\n%s--- run2\n%s", c1, c2)
	}
	var t1, t2 bytes.Buffer
	if err := g1.Tracer.WriteJSONL(&t1); err != nil {
		t.Fatalf("trace 1: %v", err)
	}
	if err := g2.Tracer.WriteJSONL(&t2); err != nil {
		t.Fatalf("trace 2: %v", err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Errorf("trace exports differ (%d vs %d bytes)", t1.Len(), t2.Len())
	}
	// The derived telemetry must be byte-identical too: the causal
	// critical-path report and the gauge time series.
	r1 := trace.Analyze(g1.Tracer.Events()).Report()
	r2 := trace.Analyze(g2.Tracer.Events()).Report()
	if r1 != r2 {
		t.Errorf("analyzer reports differ:\n--- run1\n%s--- run2\n%s", r1, r2)
	}
	var s1, s2 bytes.Buffer
	if err := g1.Gauges.Series(5*time.Second, g1.Sim.Now()).WriteCSV(&s1); err != nil {
		t.Fatalf("gauges 1: %v", err)
	}
	if err := g2.Gauges.Series(5*time.Second, g2.Sim.Now()).WriteCSV(&s2); err != nil {
		t.Fatalf("gauges 2: %v", err)
	}
	if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
		t.Errorf("gauge series differ:\n--- run1\n%s--- run2\n%s", s1.String(), s2.String())
	}
}
