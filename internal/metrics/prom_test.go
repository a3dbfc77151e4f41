package metrics

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cogrid/internal/vtime"
)

func promFixture(sim *vtime.Sim) PromSnapshot {
	gs := NewGaugeSet(sim)
	gs.G("broker.queue_depth@b0").Add(3)
	gs.G("lrm.busy@m1").Add(7)
	hs := NewHistogramSet()
	h := hs.H("rpc.call.latency")
	for _, v := range []int64{10, 20, 100, 5000} {
		h.Record(v)
	}
	return PromSnapshot{
		Counters: []NamedValue{
			{Name: "rpc.call.ok@workstation", Value: 12},
			{Name: "rpc.call.ok@m1", Value: 4},
			{Name: "transport.msgs.send@m1", Value: 99},
		},
		Gauges:  gs,
		GaugeAt: sim.Now(),
		Hists:   hs,
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	sim := vtime.New()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, promFixture(sim)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cogrid_rpc_call_ok counter",
		`cogrid_rpc_call_ok{scope="m1"} 4`,
		`cogrid_rpc_call_ok{scope="workstation"} 12`,
		`cogrid_transport_msgs_send{scope="m1"} 99`,
		"# TYPE cogrid_broker_queue_depth gauge",
		`cogrid_broker_queue_depth{scope="b0"} 3`,
		`cogrid_lrm_busy{scope="m1"} 7`,
		"# TYPE cogrid_rpc_call_latency histogram",
		`cogrid_rpc_call_latency_bucket{le="+Inf"} 4`,
		"cogrid_rpc_call_latency_sum 5130",
		"cogrid_rpc_call_latency_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One # TYPE header per family, with scoped samples contiguous.
	if strings.Count(out, "# TYPE cogrid_rpc_call_ok counter") != 1 {
		t.Fatalf("family header repeated:\n%s", out)
	}
	// Histogram buckets must be cumulative and end at the count.
	if !strings.Contains(out, `cogrid_rpc_call_latency_bucket{le="10"} 1`) {
		t.Fatalf("missing first cumulative bucket:\n%s", out)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	sim := vtime.New()
	snap := promFixture(sim)
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, snap); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("repeated exposition writes differ")
	}
}

func TestWritePrometheusEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, PromSnapshot{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty snapshot produced output: %q", buf.String())
	}
}

func TestGaugeValue(t *testing.T) {
	sim := vtime.New()
	gs := NewGaugeSet(sim)
	g := gs.G("q")
	g.Add(2)
	g.Add(3)
	if got := g.Value(0); got != 5 {
		t.Fatalf("Value(0) = %v, want 5", got)
	}
	var nilG *Gauge
	if nilG.Value(time.Second) != 0 {
		t.Fatal("nil gauge Value must be 0")
	}
}

func TestGaugeSetConcurrentWriters(t *testing.T) {
	// Under -race: concurrent G lookups and Adds across goroutines must be
	// safe, and the delta sum must come out exact.
	sim := vtime.New()
	gs := NewGaugeSet(sim)
	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				gs.G("shared").Add(1)
				gs.G("shared").Add(-1)
				gs.G("counted").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := gs.G("shared").Value(0); got != 0 {
		t.Fatalf("shared gauge = %v, want 0", got)
	}
	if got := gs.G("counted").Value(0); got != writers*perWriter {
		t.Fatalf("counted gauge = %v, want %d", got, writers*perWriter)
	}
}

// countingWriter counts Write calls: gridsim -metrics-out and benchgrid
// -metrics-out hand WritePrometheus a bare *os.File, so every call is a
// write(2).
type countingWriter struct {
	calls, bytes, lines int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	w.bytes += len(p)
	w.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

func TestWritePrometheusWriteCalls(t *testing.T) {
	snap := promFixture(vtime.New())
	snap.Counters = goldenCounters()
	var w countingWriter
	if err := WritePrometheus(&w, snap); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d lines, %d bytes in %d Write calls", w.lines, w.bytes, w.calls)
	// It was one call per line (3 278 here); now the writer buffers.
	if limit := 2 + w.bytes/(32<<10); w.calls < 1 || w.calls > limit {
		t.Errorf("%d Write calls for %d bytes in %d lines, want at most %d", w.calls, w.bytes, w.lines, limit)
	}
}

// failingWriter accepts a number of writes and then fails.
type failingWriter struct{ left int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.left--; w.left < 0 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

// A write error surfaces whether it hits a flush in the middle or the last
// one, and nothing is written after it.
func TestWritePrometheusReportsWriteErrors(t *testing.T) {
	snap := promFixture(vtime.New())
	snap.Counters = goldenCounters()
	for _, ok := range []int{0, 1, 3} {
		w := &failingWriter{left: ok}
		if err := WritePrometheus(w, snap); err != io.ErrClosedPipe {
			t.Errorf("after %d good writes: err = %v, want io.ErrClosedPipe", ok, err)
		}
		if w.left != -1 {
			t.Errorf("after %d good writes: %d more write(s) followed the failed one", ok, -1-w.left)
		}
	}
}

// BenchmarkWritePrometheus writes the snapshot BenchmarkCountersSnapshot (in
// internal/trace) takes: 65 000 per-connection lines under 13 000 scopes
// and 3 000 per-host lines.
func BenchmarkWritePrometheus(b *testing.B) {
	var cs []NamedValue
	for s := 0; s < 13_000; s++ {
		dir := fmt.Sprintf("site%02d:client->site%02d:gram@%d", s%24, s%23, 1000+s*37)
		for _, verb := range []string{"send", "sendbytes", "recv", "recvbytes", "drop"} {
			cs = append(cs, NamedValue{Name: "transport.conn." + verb + "@" + dir, Value: int64(s)})
		}
	}
	for i := 0; i < 3_000; i++ {
		verb := []string{"send", "recv"}[i%2]
		cs = append(cs, NamedValue{Name: fmt.Sprintf("transport.msgs.%s@host%04d", verb, i/2), Value: int64(i)})
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	snap := PromSnapshot{Counters: cs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WritePrometheus(io.Discard, snap); err != nil {
			b.Fatal(err)
		}
	}
}
