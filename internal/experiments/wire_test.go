package experiments

import (
	"testing"

	"cogrid/internal/rpc"
	"cogrid/internal/transport"
)

// TestWireNetRunRows pins the deterministic half of B3: each codec and
// batching setting delivers the whole stream with no drops, the binary
// envelope is smaller on the wire than JSON, batching coalesces, and a
// row repeats exactly run to run.
func TestWireNetRunRows(t *testing.T) {
	var cfg WireConfig
	cfg.fill()
	const messages = 2000
	run := func(codec rpc.Codec, batch transport.BatchOptions) WireRow {
		row := wireNetRun(codec, batch, messages, cfg.Body)
		if again := wireNetRun(codec, batch, messages, cfg.Body); again != row {
			t.Errorf("%s row differs run to run:\n  %+v\n  %+v", row.Codec, row, again)
		}
		if row.Delivered < messages || row.Dropped != 0 {
			t.Errorf("%s (batched=%t): delivered %d of %d, dropped %d",
				row.Codec, row.Batched, row.Delivered, messages, row.Dropped)
		}
		return row
	}
	json := run(rpc.JSON, transport.BatchOptions{})
	binary := run(rpc.Binary, transport.BatchOptions{})
	batched := run(rpc.Binary, cfg.Batch)
	if binary.WireBytes >= json.WireBytes {
		t.Errorf("binary wire bytes %d not below JSON %d", binary.WireBytes, json.WireBytes)
	}
	if batched.BatchP50 <= 1 {
		t.Errorf("batched row coalesced nothing: median batch %.1f", batched.BatchP50)
	}
}
