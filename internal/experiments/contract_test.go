package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"cogrid/internal/grid"
)

// The brokered studies' contract: whatever assembles the grid, submits the
// requests and drives the load, the smoke rows below and the traces behind
// them do not move. The rows are what `benchgrid -smoke -json` prints; the
// hashes are of the runs' JSONL trace exports.

func traceHash(t *testing.T, g *grid.Grid) string {
	t.Helper()
	h := sha256.New()
	if err := g.Tracer.WriteJSONL(h); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func rowJSON(t *testing.T, row any) string {
	t.Helper()
	b, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestBrokeredRowsPinned(t *testing.T) {
	for _, r := range []struct {
		name      string
		do        func() (any, *grid.Grid)
		row, hash string
	}{
		{"b1 open 12/min bound 2",
			func() (any, *grid.Grid) { return first(BrokerLoadRun(1, true, 12, 2)) },
			`{"mode":"open","offered_per_min":12,"queue_bound":2,"requests":8,"completed":8,"failed":0,"rejects":0,"retries":0,"cache_hits":8,"cache_stale":0,"throughput_per_min":5.5878887808552316,"p50":19267383603,"p99":50858041518}`,
			"04fc7f7b41792b26"},
		{"b1 closed 2 clients bound 2",
			func() (any, *grid.Grid) { return first(brokerClosedRun(brokerSmoke.loadSetting, 1, 2, 2)) },
			`{"mode":"closed","clients":2,"queue_bound":2,"requests":8,"completed":8,"failed":0,"rejects":0,"retries":0,"cache_hits":8,"cache_stale":0,"throughput_per_min":7.147643511279875,"p50":3192000000,"p99":57562000000}`,
			"5848b74b5f357332"},
		{"b2 fault rate 0.75",
			func() (any, *grid.Grid) { return first(ChaosRun(3, true, 0.75)) },
			`{"fault_rate":0.75,"faults":3,"fault_kinds":"host-crash:2 host-hang:1","first_fault":71004911444,"requests":6,"completed":6,"failed":0,"abandoned":0,"rejects":0,"retries":0,"watchdog_aborts":0,"orphans_recorded":2,"orphans_reaped":2,"leaked_jobs":0,"success_rate":1,"p50":3192000000,"p99":3192000000}`,
			"269ae28d650e2635"},
		{"b6 one replica",
			func() (any, *grid.Grid) { return first(FederationLoadRun(1, true, 1)) },
			`{"replicas":1,"requests":40,"completed":40,"failed":0,"rejects":14,"failovers":0,"forwards":0,"elections":0,"handoffs":0,"crashes":0,"throughput_per_min":6.138766824057828,"p50":27913452892,"p99":124648928843}`,
			"3a7ef03013e0ce34"},
		{"b6 two replicas, leader crash",
			func() (any, *grid.Grid) { return first(FederationLoadRun(1, true, 2)) },
			`{"replicas":2,"requests":40,"completed":40,"failed":0,"rejects":12,"failovers":7,"forwards":0,"elections":1,"handoffs":11,"crashes":1,"throughput_per_min":11.876930684546371,"p50":6730050275,"p99":80891002797}`,
			"ec4ef245ede97f94"},
	} {
		t.Run(r.name, func(t *testing.T) {
			row, g := r.do()
			if got := rowJSON(t, row); got != r.row {
				t.Errorf("row moved:\n got %s\nwant %s", got, r.row)
			}
			if got := traceHash(t, g); got != r.hash {
				t.Errorf("trace moved: hash %s, want %s", got, r.hash)
			}
		})
	}
}

func first[R any](row R, g *grid.Grid) (any, *grid.Grid) { return row, g }
