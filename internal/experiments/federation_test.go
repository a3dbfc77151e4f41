package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// TestFederationScalingBeatsSingleReplica locks the study's acceptance
// criterion: two replicas sustain higher admitted throughput than one at
// no worse tail latency — even though the two-replica row also absorbs a
// replica crash and restart mid-run, which the single-replica row is
// spared.
func TestFederationScalingBeatsSingleReplica(t *testing.T) {
	res := FederationLoadStudy(1, true)
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(res.Rows))
	}
	one, two := res.Rows[0], res.Rows[1]
	if one.Replicas != 1 || two.Replicas != 2 {
		t.Fatalf("row order wrong: %+v", res.Rows)
	}
	for _, row := range res.Rows {
		if row.Completed < row.Requests*4/5 {
			t.Errorf("%d replicas: only %d/%d completed", row.Replicas, row.Completed, row.Requests)
		}
	}
	if bad := res.Check(); len(bad) > 0 {
		t.Errorf("gate violations: %v", bad)
	}
	// The two-replica row must have earned its numbers under failure:
	// one crash, with the dead replica's journal entries handed off.
	if two.Crashes != 1 {
		t.Errorf("expected exactly one crash in the 2-replica row, got %d", two.Crashes)
	}
	if two.Handoffs == 0 {
		t.Error("replica crash produced no journal hand-offs")
	}
	if two.Elections == 0 {
		t.Error("leader crash triggered no election")
	}
	if one.Crashes != 0 || one.Failovers != 0 {
		t.Errorf("single-replica row saw crashes/failovers: %+v", one)
	}
}

// TestFederationLoadDeterminism: the same arguments yields an identical row
// and a byte-identical Prometheus exposition — elections, hand-offs,
// failovers and all. This is the observatory's determinism contract
// extended to the federation series.
func TestFederationLoadDeterminism(t *testing.T) {
	rowA, gA := FederationLoadRun(1, true, 2)
	rowB, gB := FederationLoadRun(1, true, 2)
	if !reflect.DeepEqual(rowA, rowB) {
		t.Errorf("rows differ:\n%+v\n%+v", rowA, rowB)
	}
	var a, b bytes.Buffer
	if err := gA.WriteMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := gB.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Prometheus expositions differ between identical runs")
	}
	// The exposition must actually carry the federation series: the
	// per-replica queue depth gauge, the liveness gauge, and the
	// election / hand-off / forward histograms.
	text := a.String()
	for _, want := range []string{
		"cogrid_fed_live_replicas", "cogrid_fed_election_latency",
		"cogrid_fed_handoff_time", "cogrid_broker_queue_depth",
	} {
		if !bytes.Contains(a.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %q:\n%.2000s", want, text)
		}
	}
}

// TestFederationCheckCatches pins that the gate actually rejects a sweep
// in which no multi-replica row beats the single replica: one with more
// throughput but a worse p99, one with a better p99 but less throughput.
// A sweep without a single-replica row has no baseline to miss.
func TestFederationCheckCatches(t *testing.T) {
	rows := []FederationLoadRow{
		{Replicas: 1, ThroughputPerMin: 6, P99: time.Minute},
		{Replicas: 2, ThroughputPerMin: 7, P99: 2 * time.Minute},
		{Replicas: 4, ThroughputPerMin: 5, P99: time.Second},
	}
	if bad := (FederationLoadResult{Rows: rows}).Check(); len(bad) != 1 {
		t.Fatalf("want 1 violation (no row beat the baseline), got %v", bad)
	}
	if bad := (FederationLoadResult{Rows: rows[1:]}).Check(); len(bad) != 0 {
		t.Fatalf("sweep without a baseline rejected: %v", bad)
	}
	rows[1].P99 = time.Minute
	if bad := (FederationLoadResult{Rows: rows}).Check(); len(bad) != 0 {
		t.Fatalf("winning row rejected: %v", bad)
	}
}
