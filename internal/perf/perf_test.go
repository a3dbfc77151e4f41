package perf

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioDeterministic locks in the perf pipeline's determinism
// contract: for a fixed seed, the scenario half of BENCH_grid.json and the
// full Prometheus exposition are byte-identical run to run — every
// recorded quantity is virtual-time, so real goroutine interleaving must
// not leak into the snapshot.
func TestScenarioDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		snap, err := Run(RunConfig{Seed: 1, SkipBench: true})
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := WriteJSON(&js, snap.Canonical()); err != nil {
			t.Fatal(err)
		}
		_, g, _ := RunScenario(1)
		var prom bytes.Buffer
		if err := g.WriteMetrics(&prom); err != nil {
			t.Fatal(err)
		}
		return js.Bytes(), prom.Bytes()
	}
	js1, prom1 := run()
	js2, prom2 := run()
	if !bytes.Equal(js1, js2) {
		t.Fatalf("scenario snapshot not byte-identical across runs:\n--- run1\n%s\n--- run2\n%s", js1, js2)
	}
	if !bytes.Equal(prom1, prom2) {
		t.Fatalf("prometheus exposition not byte-identical across runs:\n--- run1\n%s\n--- run2\n%s", prom1, prom2)
	}
	if len(prom1) == 0 {
		t.Fatal("prometheus exposition empty: scenario grid lost its registries")
	}
}

// TestScenarioSeries checks the scenario covers the layers the snapshot
// promises: broker row, kernel counters, and the per-layer histograms.
func TestScenarioSeries(t *testing.T) {
	series, g, row := RunScenario(1)
	if row.Completed == 0 {
		t.Fatalf("scenario completed no requests: %+v", row)
	}
	names := map[string]bool{}
	for _, s := range series {
		if s.Kind != "scenario" {
			t.Fatalf("series %s has kind %q, want scenario", s.Name, s.Kind)
		}
		names[s.Name] = true
	}
	for _, want := range []string{
		"scenario.broker.load",
		"scenario.vtime.kernel",
		"scenario.hist.rpc.call.latency",
		"scenario.hist.transport.msg.delay",
		"scenario.hist.lrm.queue.wait",
		"scenario.hist.core.2pc.submit",
		"scenario.hist.broker.request.latency",
		"scenario.hist.vtime.timer.lead",
	} {
		if !names[want] {
			t.Fatalf("scenario series %q missing; have %v", want, names)
		}
	}
	if g.Sim.TimersFired() == 0 {
		t.Fatal("kernel fired no timers")
	}
}

// TestFedScenarioSeries checks the federation scenario earns its series:
// the load row must have absorbed a leader crash (election, hand-offs,
// failovers) and the federation's own histograms must be populated.
func TestFedScenarioSeries(t *testing.T) {
	series, g, row := RunFedScenario(1)
	if row.Completed == 0 {
		t.Fatalf("fed scenario completed no requests: %+v", row)
	}
	if row.Crashes != 1 || row.Elections == 0 || row.Handoffs == 0 {
		t.Fatalf("fed scenario did not exercise the failure path: %+v", row)
	}
	names := map[string]bool{}
	for _, s := range series {
		if s.Kind != "scenario" {
			t.Fatalf("series %s has kind %q, want scenario", s.Name, s.Kind)
		}
		names[s.Name] = true
	}
	for _, want := range []string{
		"scenario.fed.load",
		"scenario.fed.hist.fed.election.latency",
		"scenario.fed.hist.fed.handoff.time",
	} {
		if !names[want] {
			t.Fatalf("fed scenario series %q missing; have %v", want, names)
		}
	}
	// The returned grid's exposition carries the federation families for
	// the Prometheus endpoint (perfgrid -prom, benchgrid -metrics-out).
	var prom bytes.Buffer
	if err := g.WriteMetrics(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cogrid_fed_live_replicas", "cogrid_fed_election_latency",
		"cogrid_fed_handoff_time", "cogrid_broker_queue_depth",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("fed exposition missing %q", want)
		}
	}
}

// TestScaleScenarioSeries checks the scale scenario earns its series: the
// kernel slice must drain every job failure-free, with real timer and
// queueing volume behind the reported values.
func TestScaleScenarioSeries(t *testing.T) {
	series := RunScaleScenario(1)
	if len(series) != 1 || series[0].Name != "scenario.scale.kernel" {
		t.Fatalf("RunScaleScenario returned %+v, want one scenario.scale.kernel series", series)
	}
	s := series[0]
	if s.Kind != "scenario" {
		t.Fatalf("series kind %q, want scenario", s.Kind)
	}
	v := s.Values
	if v["done"] != float64(s.N) || v["failed"] != 0 {
		t.Fatalf("scale slice lost jobs: done=%v failed=%v of %d", v["done"], v["failed"], s.N)
	}
	if v["timers_fired"] <= v["done"] {
		t.Fatalf("timers_fired=%v implausibly low for %v jobs", v["timers_fired"], v["done"])
	}
	if v["virtual_end_ms"] <= 0 || v["p99_wait_ms"] < v["mean_wait_ms"] {
		t.Fatalf("implausible drain/wait values: %+v", v)
	}
}

func TestSuiteShape(t *testing.T) {
	suite := Suite()
	if len(suite) < 8 {
		t.Fatalf("suite has %d benchmarks, want >= 8", len(suite))
	}
	seen := map[string]bool{}
	for _, bn := range suite {
		if bn.Name == "" || bn.F == nil {
			t.Fatalf("malformed suite entry: %+v", bn)
		}
		if seen[bn.Name] {
			t.Fatalf("duplicate benchmark name %q", bn.Name)
		}
		seen[bn.Name] = true
	}
	for _, want := range []string{"histogram_record", "trace_export_jsonl", "rpc_call",
		"transport_roundtrip", "vtime_timer", "lrm_submit", "core_2pc", "broker_submit"} {
		if !seen[want] {
			t.Fatalf("suite missing %q", want)
		}
	}
}

func TestCompare(t *testing.T) {
	base := Snapshot{Schema: SchemaVersion, Series: []Series{
		{Name: "rpc_call", Kind: "bench", NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "lrm_submit", Kind: "bench", NsPerOp: 2000, AllocsPerOp: 5},
		{Name: "gone", Kind: "bench", NsPerOp: 50},
		{Name: "scenario.broker.load", Kind: "scenario", Values: map[string]float64{"completed": 8}},
	}}
	cur := Snapshot{Schema: SchemaVersion, Series: []Series{
		{Name: "rpc_call", Kind: "bench", NsPerOp: 1300, AllocsPerOp: 11},  // +30% ns: regression; +10% allocs: within tolerance
		{Name: "lrm_submit", Kind: "bench", NsPerOp: 2100, AllocsPerOp: 7}, // +5% ns: fine; +40% allocs: grown
		{Name: "fresh", Kind: "bench", NsPerOp: 10},
		{Name: "scenario.broker.load", Kind: "scenario", Values: map[string]float64{"completed": 4}},
	}}
	res, err := Compare(base, cur, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	if reg := res.Regressions(); len(reg) != 1 || reg[0] != "rpc_call" {
		t.Fatalf("Regressions = %v, want [rpc_call]", reg)
	}
	if grown := res.allocRegressions(); len(grown) != 1 || grown[0] != "lrm_submit" {
		t.Fatalf("allocRegressions = %v, want [lrm_submit]", grown)
	}
	if len(res.Missing) != 1 || res.Missing[0] != "gone" {
		t.Fatalf("Missing = %v, want [gone]", res.Missing)
	}
	if len(res.Added) != 1 || res.Added[0] != "fresh" {
		t.Fatalf("Added = %v, want [fresh]", res.Added)
	}
	report := res.Report(0.20)
	if !strings.Contains(report, "REGRESSION") || !strings.Contains(report, "rpc_call") {
		t.Fatalf("report missing regression marker:\n%s", report)
	}
	if !strings.Contains(report, "FAIL: allocs/op grew beyond 10% on 1 series: lrm_submit") {
		t.Fatalf("report missing the allocs failure:\n%s", report)
	}

	// Scenario series never gate.
	for _, d := range res.Deltas {
		if strings.HasPrefix(d.Name, "scenario.") {
			t.Fatalf("scenario series %q compared as bench", d.Name)
		}
	}

	// Schema mismatch refuses to compare.
	if _, err := Compare(Snapshot{Schema: "other/v0"}, cur, 0.20); err == nil {
		t.Fatal("schema mismatch must error")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap, err := Run(RunConfig{Seed: 1, SkipBench: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_grid.json")
	var buf bytes.Buffer
	if err := WriteJSON(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion || len(back.Series) != len(snap.Series) {
		t.Fatalf("round trip mangled snapshot: %d series vs %d", len(back.Series), len(snap.Series))
	}
	if s := back.Find("scenario.broker.load"); s == nil || s.Values["completed"] == 0 {
		t.Fatal("round trip lost scenario.broker.load values")
	}

	// A wrong-schema file is rejected.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"nope/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bad); err == nil {
		t.Fatal("wrong schema must be rejected")
	}
}
