package experiments

import (
	"bytes"
	"testing"
	"time"

	"cogrid/internal/trace"
)

// tinyBrokerConfig keeps the study small enough for the test gate.
func tinyBrokerConfig() BrokerLoadConfig { return BrokerSmokeConfig(1) }

func TestBrokerLoadStudySmoke(t *testing.T) {
	res := BrokerLoadStudy(tinyBrokerConfig())
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (2 open + 1 closed)", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row.Completed+row.Failed != row.Requests {
			t.Errorf("row %d: completed %d + failed %d != requests %d",
				i, row.Completed, row.Failed, row.Requests)
		}
		if row.Completed > 0 && (row.P50 <= 0 || row.P99 < row.P50) {
			t.Errorf("row %d: implausible latencies p50=%v p99=%v", i, row.P50, row.P99)
		}
		if row.Completed > 0 && row.ThroughputPerMin <= 0 {
			t.Errorf("row %d: throughput = %v with %d completed",
				i, row.ThroughputPerMin, row.Completed)
		}
	}
	if tbl := res.Table().String(); tbl == "" {
		t.Errorf("empty table")
	}
}

func TestBrokerLoadBackpressureVisible(t *testing.T) {
	// At the top offered rate with a tiny queue bound, admission rejects
	// must show up in the counters (the acceptance criterion for B1).
	cfg := tinyBrokerConfig()
	row, _ := BrokerLoadRun(cfg, 12, 1)
	if row.Rejects == 0 {
		t.Errorf("rejects = 0 at 12/min with queue bound 1; row = %+v", row)
	}
	if row.Completed == 0 {
		t.Errorf("nothing completed: %+v", row)
	}
}

func TestBrokerLoadDeterminism(t *testing.T) {
	// Two same-config runs must agree byte for byte on both the counter
	// registry and the full trace export.
	cfg := tinyBrokerConfig()
	row1, g1 := BrokerLoadRun(cfg, 12, 2)
	row2, g2 := BrokerLoadRun(cfg, 12, 2)
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

func TestBrokerLoadCausalInvariants(t *testing.T) {
	// A B1 smoke run must satisfy the causal-tracing invariants end to
	// end: every event attributed to a request (coverage ≥ 99%), every
	// request tree single-rooted, and every request's critical path
	// summing exactly to its end-to-end latency. This is the in-process
	// version of `make trace-smoke`.
	_, g := BrokerLoadRun(tinyBrokerConfig(), 12, 2)
	a := trace.Analyze(g.Tracer.Events())
	if problems := a.Check(); len(problems) > 0 {
		for _, p := range problems {
			t.Errorf("invariant violated: %s", p)
		}
	}
	if len(a.RequestTrees()) == 0 {
		t.Fatal("no request trees reconstructed")
	}
	for _, tree := range a.RequestTrees() {
		if tree.GatingSubjob() == "" {
			t.Errorf("request %s: no gating subjob identified", tree.Req)
		}
	}
}
