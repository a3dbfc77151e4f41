package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"cogrid/internal/trace"
	"cogrid/internal/workload"
)

// The chaos tests run the smoke setting, small enough for the test gate
// while still injecting faults at the top rate, at seed 3: its chaotic row
// exercises the full orphan pipeline — a host crash strands committed
// subjobs, a later machine-restart brings the gatekeeper back, and the
// controller's orphan sweep confirms every cancellation.

func TestChaosStudySmoke(t *testing.T) {
	res := ChaosStudy(3, true)
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
	}
	if bad := res.Check(); len(bad) > 0 {
		t.Errorf("gate violations: %v", bad)
	}
	if tbl := res.Table().String(); tbl == "" {
		t.Errorf("empty table")
	}
}

func TestChaosDeterminism(t *testing.T) {
	// Two same-seed chaos runs must agree byte for byte on the counter
	// registry and the full trace export — fault injection, substitution,
	// watchdog, and reaping included.
	row1, g1 := ChaosRun(3, true, 0.75)
	row2, g2 := ChaosRun(3, true, 0.75)
	if !reflect.DeepEqual(row1, row2) {
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

// TestChaosCheckCatches pins that the gate is the audit: a row carrying a
// violation fails Check, each violation reported on its own and naming its
// row, and a clean row passes whatever its leaked_jobs and orphan columns
// read, since the audit, not they, is the rule.
func TestChaosCheckCatches(t *testing.T) {
	res := ChaosResult{Rows: []ChaosRow{
		{FaultRate: 0, Requests: 6, Completed: 6, LeakedJobs: 1, OrphansRecorded: 3, OrphansReaped: 2},
		{FaultRate: 0.5, Violations: []workload.Violation{
			{Invariant: "leaked-jobs", Detail: "machine site01 still runs 1 jobs at quiescence"},
			{Invariant: "orphan-reap", Detail: "3 orphans recorded but 2 reaped"},
		}},
	}}
	bad := res.Check()
	if len(bad) != 2 || !strings.HasPrefix(bad[0], "fault rate 0.50: leaked-jobs:") ||
		!strings.HasPrefix(bad[1], "fault rate 0.50: orphan-reap:") {
		t.Fatalf("want 2 violations (leak, unreaped orphan) of the 0.50 row, got %v", bad)
	}
	if bad := (ChaosResult{Rows: res.Rows[:1]}).Check(); len(bad) != 0 {
		t.Fatalf("clean row rejected: %v", bad)
	}
}
