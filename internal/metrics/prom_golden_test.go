package metrics

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"cogrid/internal/vtime"
)

// The exposition's bytes are a contract: scripts/identical.sh compares them
// across commits and dashboards parse them. This file pins them for one
// fixed snapshot and is not edited by a change that claims "same bytes".

// goldenCounters is the fixed counter snapshot, sorted by name the way
// trace.Counters.Snapshot hands it over: a scope that needs all three label
// escapes, two base names whose sanitised families collide (a.b and a_b
// both become cogrid_a_b — one header, their rows interleaved by scope), an
// unscoped counter, and 3 000 per-connection rows under verbs that prefix one
// another, enough to cross any flush boundary several times. A connection's
// scope ends in "@<dial µs>" and the writer splits a name at its LAST '@',
// so — as in every exposition this repository has written — the direction
// lands in the family name and the label carries the dial time.
func goldenCounters() []NamedValue {
	cs := []NamedValue{
		{Name: "a.b@s1", Value: 1},
		{Name: "a.b@s3", Value: 3},
		{Name: "a_b@s2", Value: 2},
		{Name: "a_b@s4", Value: -4},
		{Name: "broker.request.ok", Value: 400},
		{Name: "esc.label@back\\slash \"quoted\"\nnext line", Value: 7},
		{Name: "rpc.call.ok@m1", Value: 4},
		{Name: "rpc.call.ok@workstation", Value: 12},
		{Name: "weird name-with.punct/and:colon@x", Value: 9223372036854775807},
	}
	for i := 0; i < 1000; i++ {
		dir := fmt.Sprintf("site%02d:client->ws:svc%d@%d", i%17, i%5, 1000+i*37)
		cs = append(cs,
			NamedValue{Name: "transport.conn.recv@" + dir, Value: int64(i)},
			NamedValue{Name: "transport.conn.recvbytes@" + dir, Value: int64(i) * 1021},
			NamedValue{Name: "transport.conn.send@" + dir, Value: int64(i % 7)},
		)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	return cs
}

// goldenHead is the exposition of goldenCounters up to the second
// per-connection family, byte for byte.
const goldenHead = `# TYPE cogrid_a_b counter
cogrid_a_b{scope="s1"} 1
cogrid_a_b{scope="s2"} 2
cogrid_a_b{scope="s3"} 3
cogrid_a_b{scope="s4"} -4
# TYPE cogrid_broker_request_ok counter
cogrid_broker_request_ok 400
# TYPE cogrid_esc_label counter
cogrid_esc_label{scope="back\\slash \"quoted\"\nnext line"} 7
# TYPE cogrid_rpc_call_ok counter
cogrid_rpc_call_ok{scope="m1"} 4
cogrid_rpc_call_ok{scope="workstation"} 12
# TYPE cogrid_transport_conn_recv_site00:client__ws:svc0 counter
cogrid_transport_conn_recv_site00:client__ws:svc0{scope="1000"} 0
cogrid_transport_conn_recv_site00:client__ws:svc0{scope="10435"} 255
cogrid_transport_conn_recv_site00:client__ws:svc0{scope="13580"} 340
cogrid_transport_conn_recv_site00:client__ws:svc0{scope="16725"} 425
cogrid_transport_conn_recv_site00:client__ws:svc0{scope="19870"} 510
cogrid_transport_conn_recv_site00:client__ws:svc0{scope="23015"} 595
cogrid_transport_conn_recv_site00:client__ws:svc0{scope="26160"} 680
cogrid_transport_conn_recv_site00:client__ws:svc0{scope="29305"} 765
cogrid_transport_conn_recv_site00:client__ws:svc0{scope="32450"} 850
cogrid_transport_conn_recv_site00:client__ws:svc0{scope="35595"} 935
cogrid_transport_conn_recv_site00:client__ws:svc0{scope="4145"} 85
cogrid_transport_conn_recv_site00:client__ws:svc0{scope="7290"} 170
# TYPE cogrid_transport_conn_recv_site00:client__ws:svc1 counter
`

// The rest is pinned by size and digest: 3 000 rows are not worth reading,
// only worth not changing.
const (
	goldenLines  = 3269
	goldenBytes  = 229591
	goldenSHA256 = "46ae669afcd9e559a7e33f02c0aad423c2eb1d6e3a87ec0e032de062e73947b8"
	goldenTail   = "# TYPE cogrid_weird_name_with_punct_and:colon counter\n" +
		"cogrid_weird_name_with_punct_and:colon{scope=\"x\"} 9223372036854775807\n"
)

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, PromSnapshot{Counters: goldenCounters()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, goldenHead) {
		t.Errorf("exposition head changed:\n%s", out[:min(len(out), len(goldenHead)+80)])
	}
	if !strings.HasSuffix(out, goldenTail) {
		t.Errorf("exposition tail changed:\n%s", out[max(0, len(out)-len(goldenTail)-80):])
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenSHA256 || len(out) != goldenBytes || strings.Count(out, "\n") != goldenLines {
		t.Errorf("exposition changed: %d lines, %d bytes, sha256 %s; want %d, %d, %s",
			strings.Count(out, "\n"), len(out), got, goldenLines, goldenBytes, goldenSHA256)
	}
	// Rows of one family are contiguous under one header.
	if n := strings.Count(out, "# TYPE cogrid_transport_conn_send_site16:client__ws:svc4 counter\n"); n != 1 {
		t.Errorf("a per-connection family's header is written %d times", n)
	}
}

// Gauges and histograms ride the same writer; pin their line shapes next to
// a scope that needs escaping.
func TestWritePrometheusGoldenGaugesAndHists(t *testing.T) {
	gs := NewGaugeSet(vtime.New())
	gs.G("lrm.busy@m\"1").Add(7)
	gs.G("broker.queue_depth").Add(2.5)
	hs := NewHistogramSet()
	for _, v := range []int64{10, 20, 100, 5000} {
		hs.H("rpc.call.latency").Record(v)
		hs.H("rpc.serve.latency@m\\1").Record(v * 3)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, PromSnapshot{Prefix: "x_", Gauges: gs, Hists: hs}); err != nil {
		t.Fatal(err)
	}
	const want = `# TYPE x_broker_queue_depth gauge
x_broker_queue_depth 2.5
# TYPE x_lrm_busy gauge
x_lrm_busy{scope="m\"1"} 7
# TYPE x_rpc_call_latency histogram
x_rpc_call_latency_bucket{le="10"} 1
x_rpc_call_latency_bucket{le="20"} 2
x_rpc_call_latency_bucket{le="101"} 3
x_rpc_call_latency_bucket{le="5119"} 4
x_rpc_call_latency_bucket{le="+Inf"} 4
x_rpc_call_latency_sum 5130
x_rpc_call_latency_count 4
# TYPE x_rpc_serve_latency histogram
x_rpc_serve_latency_bucket{scope="m\\1",le="30"} 1
x_rpc_serve_latency_bucket{scope="m\\1",le="60"} 2
x_rpc_serve_latency_bucket{scope="m\\1",le="303"} 3
x_rpc_serve_latency_bucket{scope="m\\1",le="15103"} 4
x_rpc_serve_latency_bucket{scope="m\\1",le="+Inf"} 4
x_rpc_serve_latency_sum 15390
x_rpc_serve_latency_count 4
`
	if got := buf.String(); got != want {
		t.Errorf("exposition changed:\n%s\nwant:\n%s", got, want)
	}
}
