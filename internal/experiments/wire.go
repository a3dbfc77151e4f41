package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"cogrid/internal/metrics"
	"cogrid/internal/rpc"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// --- B3: wire codec and batching throughput ---

// WireConfig parameterizes the wire throughput study. Zero values select
// the stock setting: 4000-message virtual rows, 64-byte bodies, and a
// 32-message / 500µs batching policy.
type WireConfig struct {
	// Messages is the per-row message count of the deterministic
	// virtual-time run (wire bytes, drops, batch sizes).
	Messages int
	// Body is the filler payload length in bytes; the envelope fields
	// around it are what the codecs differ on.
	Body int
	// BenchTime is the testing -benchtime for the wall-clock rows
	// ("20ms", "200x"); empty keeps the testing default of 1s.
	BenchTime string
	// Batch is the coalescing policy of the batched rows.
	Batch transport.BatchOptions
	Seed  int64
}

func (c *WireConfig) fill() {
	if c.Messages <= 0 {
		c.Messages = 4000
	}
	if c.Body <= 0 {
		c.Body = 64
	}
	if c.Batch.Delay <= 0 {
		c.Batch = transport.BatchOptions{MaxMsgs: 32, MaxBytes: 64 << 10, Delay: 500 * time.Microsecond}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// WireRow is one codec/batching setting's outcome: wall-clock messages/sec
// and allocations from a testing.Benchmark run, plus the deterministic
// virtual-time wire statistics of a fixed-size streaming run.
type WireRow struct {
	Codec       string  `json:"codec"` // "json" or "binary"
	Batched     bool    `json:"batched"`
	MsgsPerSec  float64 `json:"msgs_per_sec"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Virtual-time statistics (deterministic for a fixed config).
	Messages    int     `json:"messages"`
	Delivered   int64   `json:"delivered"`
	Dropped     int64   `json:"dropped"`
	WireBytes   int64   `json:"wire_bytes"`
	BytesPerMsg float64 `json:"bytes_per_msg"`
	BatchP50    float64 `json:"batch_p50,omitempty"` // median messages per batch
	VirtualMs   float64 `json:"virtual_ms"`
}

// WireResult is the B3 study.
type WireResult struct {
	Body  int       `json:"body_bytes"`
	Batch string    `json:"batch_policy"`
	Rows  []WireRow `json:"rows"`
}

// wireSyncEvery is the flow-control window: the streaming client issues a
// synchronous call after this many notifications, bounding the number in
// flight well under the delivery queue so nothing is dropped.
const wireSyncEvery = 256

// wireCodecs enumerates the study's rows in fixed order.
var wireCodecs = []struct {
	name  string
	codec rpc.Codec
}{
	{"json", rpc.JSON},
	{"binary", rpc.Binary},
}

// WireStudy measures envelope codec and batching cost head to head: for
// each codec × batching setting it streams notifications from a client to
// a sink server — wall-clock throughput and allocations via
// testing.Benchmark, wire bytes and batch sizes via a deterministic
// virtual-time run. The acceptance bar (enforced by benchgrid -app wire)
// is the binary codec beating JSON on both messages/sec and allocs/op.
func WireStudy(cfg WireConfig) WireResult {
	cfg.fill()
	if cfg.BenchTime != "" {
		testing.Init()
		// Best effort: the flag may be locked by an enclosing test binary.
		_ = setBenchTime(cfg.BenchTime)
	}
	res := WireResult{
		Body:  cfg.Body,
		Batch: fmt.Sprintf("%d msgs / %d B / %v", cfg.Batch.MaxMsgs, cfg.Batch.MaxBytes, cfg.Batch.Delay),
	}
	for _, batched := range []bool{false, true} {
		for _, c := range wireCodecs {
			batch := transport.BatchOptions{}
			if batched {
				batch = cfg.Batch
			}
			row := wireNetRun(c.codec, batch, cfg.Messages, cfg.Body)
			r := testing.Benchmark(wireBenchFunc(c.codec, batch, cfg.Body))
			if r.N > 0 && r.T > 0 {
				row.MsgsPerSec = float64(r.N) / r.T.Seconds()
				row.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
				row.AllocsPerOp = float64(r.AllocsPerOp())
				row.BytesPerOp = float64(r.AllocedBytesPerOp())
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res
}

// wireNetRun is the deterministic half of a B3 row: it streams a fixed
// message count through the simulated wire and reads back delivery, drop,
// size, and batch statistics. Every value is a virtual-time quantity, so
// the row is byte-stable run to run.
func wireNetRun(codec rpc.Codec, batch transport.BatchOptions, messages, bodyLen int) WireRow {
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	ctrs := trace.NewCounters()
	net.SetCounters(ctrs)
	hists := metrics.NewHistogramSet()
	net.SetHists(hists)
	if batch.Delay > 0 {
		net.SetBatching(batch)
	}
	row := WireRow{Batched: batch.Delay > 0, Messages: messages}
	for _, c := range wireCodecs {
		if c.codec == codec {
			row.Codec = c.name
		}
	}
	if err := wireStream(sim, net, codec, messages, bodyLen); err != nil {
		// The row is still emitted; zero deliveries flag the failure.
		return row
	}
	row.Delivered = ctrs.Get(trace.Key("transport", "msgs", "recv", "sink"))
	row.Dropped = ctrs.Get(trace.Key("transport", "msgs", "drop", "client"))
	row.WireBytes = net.Bytes()
	if n := net.Messages(); n > 0 {
		row.BytesPerMsg = float64(row.WireBytes) / float64(n)
	}
	if h := hists.H("transport.batch.msgs"); h.Count() > 0 {
		row.BatchP50 = float64(h.Quantile(0.50))
	}
	row.VirtualMs = float64(sim.Now()) / float64(time.Millisecond)
	return row
}

// wireStream drives one client→sink notification stream to completion.
func wireStream(sim *vtime.Sim, net *transport.Network, codec rpc.Codec, messages, bodyLen int) error {
	client, sink := net.AddHost("client"), net.AddHost("sink")
	l, err := sink.Listen("sink")
	if err != nil {
		return err
	}
	rpc.ServeCodec(sim, l, rpc.HandlerFuncs{
		Call: func(sc *rpc.ServerConn, method string, body json.RawMessage) (any, error) {
			return nil, nil
		},
	}, nil, codec)
	body := json.RawMessage(`"` + strings.Repeat("x", bodyLen) + `"`)
	var streamErr error
	err = sim.Run("driver", func() {
		conn, err := client.Dial(transport.Addr{Host: "sink", Service: "sink"})
		if err != nil {
			streamErr = err
			return
		}
		c := rpc.NewClientCodec(sim, conn, codec)
		defer c.Close()
		for i := 0; i < messages; i++ {
			if err := c.Notify("job-state", body); err != nil {
				streamErr = err
				return
			}
			// Flow control: a periodic synchronous call drains the pipe so
			// the delivery queue never saturates.
			if i%wireSyncEvery == wireSyncEvery-1 {
				if err := c.Call("checkin", nil, nil, time.Minute); err != nil {
					streamErr = err
					return
				}
			}
		}
		if err := c.Call("checkin", nil, nil, time.Minute); err != nil {
			streamErr = err
		}
	})
	if err == nil {
		err = streamErr
	}
	return err
}

// wireBenchFunc builds the wall-clock half of a B3 row: a testing.B
// function streaming b.N notifications through a fresh simulated network.
func wireBenchFunc(codec rpc.Codec, batch transport.BatchOptions, bodyLen int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		sim := vtime.New()
		net := transport.New(sim, transport.UniformLatency(time.Millisecond))
		if batch.Delay > 0 {
			net.SetBatching(batch)
		}
		b.ResetTimer()
		if err := wireStream(sim, net, codec, b.N, bodyLen); err != nil {
			b.Fatal(err)
		}
	}
}

// setBenchTime adjusts the testing benchtime flag registered by
// testing.Init.
func setBenchTime(v string) error {
	return flag.Set("test.benchtime", v)
}

// WireTable renders the study as text.
func (r WireResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "body %dB, batch policy %s\n", r.Body, r.Batch)
	fmt.Fprintf(&sb, "%-8s %-8s %12s %12s %10s %12s %10s %8s\n",
		"codec", "batched", "msgs/sec", "ns/op", "allocs/op", "bytes/msg", "batch p50", "dropped")
	for _, row := range r.Rows {
		batchP50 := "-"
		if row.BatchP50 > 0 {
			batchP50 = fmt.Sprintf("%.0f", row.BatchP50)
		}
		fmt.Fprintf(&sb, "%-8s %-8t %12.0f %12.0f %10.1f %12.1f %10s %8d\n",
			row.Codec, row.Batched, row.MsgsPerSec, row.NsPerOp, row.AllocsPerOp,
			row.BytesPerMsg, batchP50, row.Dropped)
	}
	return sb.String()
}
