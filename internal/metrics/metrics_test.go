package metrics

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTimelinePhaseTotals(t *testing.T) {
	tl := Timeline{
		{Actor: "a", Phase: "auth", Start: 0, End: time.Second},
		{Actor: "b", Phase: "auth", Start: time.Second, End: 3 * time.Second},
		{Actor: "a", Phase: "fork", Start: 0, End: 10 * time.Millisecond},
	}
	totals := tl.PhaseTotals()
	if totals["auth"] != 3*time.Second {
		t.Errorf("auth total = %v, want 3s", totals["auth"])
	}
	if totals["fork"] != 10*time.Millisecond {
		t.Errorf("fork total = %v", totals["fork"])
	}
}

func TestTimelineRender(t *testing.T) {
	tl := Timeline{
		{Actor: "sj0", Phase: "gsi", Start: 0, End: 500 * time.Millisecond},
		{Actor: "sj0", Phase: "initgroups", Start: 500 * time.Millisecond, End: 1200 * time.Millisecond},
	}
	out := tl.Render(40)
	if !strings.Contains(out, "sj0 gsi") || !strings.Contains(out, "sj0 initgroups") {
		t.Fatalf("render missing rows:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("render has %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("render has no bars:\n%s", out)
	}
	// The second phase starts where the first ends: its bar must begin
	// later in the line.
	gsiBar := strings.Index(lines[1], "#")
	igBar := strings.Index(lines[2], "#")
	if igBar <= gsiBar {
		t.Fatalf("initgroups bar starts at %d, gsi at %d:\n%s", igBar, gsiBar, out)
	}
}

func TestTimelineRenderEmpty(t *testing.T) {
	if out := Timeline(nil).Render(40); !strings.Contains(out, "empty") {
		t.Fatalf("empty render = %q", out)
	}
}

// Regression: spans out of chronological order must render sorted by
// start time with every bar inside the window — a span ending exactly at the
// window edge used to spill past the right border once zero-length bars were
// widened before clamping.
func TestTimelineRenderOutOfOrderSpans(t *testing.T) {
	const width = 40
	// Deliberately out of order, with the last span first in time and a
	// zero-length span exactly at the right edge of the window.
	tl := Timeline{
		{Actor: "c", Phase: "late", Start: 900 * time.Millisecond, End: time.Second},
		{Actor: "b", Phase: "edge", Start: time.Second, End: time.Second},
		{Actor: "a", Phase: "early", Start: 0, End: 300 * time.Millisecond},
	}
	out := tl.Render(width)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("render has %d lines, want 4:\n%s", len(lines), out)
	}
	// Rows sorted by start time regardless of slice order, which Render
	// leaves alone.
	for i, want := range []string{"a early", "c late", "b edge"} {
		if !strings.HasPrefix(lines[i+1], want) {
			t.Errorf("row %d = %q, want prefix %q", i+1, lines[i+1], want)
		}
	}
	if tl[0].Actor != "c" {
		t.Errorf("Render reordered the timeline: %+v", tl)
	}
	// Every bar stays within the |...| window.
	for _, line := range lines[1:] {
		open := strings.Index(line, "|")
		close := strings.Index(line[open+1:], "|")
		if close != width {
			t.Errorf("bar field is %d columns, want %d: %q", close, width, line)
		}
		if !strings.Contains(line[open+1:open+1+width], "#") {
			t.Errorf("row has no visible bar: %q", line)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50 != 2.5 {
		t.Errorf("P50 = %v, want 2.5", s.P50)
	}
	wantSD := math.Sqrt(1.25)
	if math.Abs(s.Stddev-wantSD) > 1e-12 {
		t.Errorf("Stddev = %v, want %v", s.Stddev, wantSD)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("empty summary = %+v, want zeros", s)
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.P50 != 7 || s.P95 != 7 || s.Stddev != 0 {
		t.Errorf("single-element summary = %+v", s)
	}
}

// percentile follows the exclusive-interpolation convention (PERCENTILE.EXC):
// h = p*(n+1) on 1-based ranks, clamped to [1, n]. The table pins the edge
// cases the convention is defined by: tiny samples and the p extremes.
func TestPercentileExclusiveConvention(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"n1-p0", []float64{5}, 0.0, 5},
		{"n1-p50", []float64{5}, 0.5, 5},
		{"n1-p100", []float64{5}, 1.0, 5},
		{"n2-p0", []float64{1, 3}, 0.0, 1},
		{"n2-p25", []float64{1, 3}, 0.25, 1}, // h = 0.75, clamped to min
		{"n2-p50", []float64{1, 3}, 0.5, 2},  // h = 1.5: midpoint
		{"n2-p75", []float64{1, 3}, 0.75, 3}, // h = 2.25, clamped to max
		{"n2-p100", []float64{1, 3}, 1.0, 3},
		{"n4-p50", []float64{1, 2, 3, 4}, 0.5, 2.5},     // h = 2.5
		{"n4-p25", []float64{1, 2, 3, 4}, 0.25, 1.25},   // h = 1.25
		{"n4-p95", []float64{1, 2, 3, 4}, 0.95, 4},      // h = 4.75, clamped
		{"n5-p25", []float64{1, 2, 3, 4, 5}, 0.25, 1.5}, // h = 1.5
		{"n5-p75", []float64{1, 2, 3, 4, 5}, 0.75, 4.5}, // h = 4.5
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", c.name, c.xs, c.p, got, c.want)
		}
	}
}

func TestSummaryP99(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	s := Summarize(xs)
	// h = 0.99*101 = 99.99 -> between the 99th and 100th order statistics.
	if math.Abs(s.P99-99.99) > 1e-9 {
		t.Errorf("P99 = %v, want 99.99", s.P99)
	}
	if s.P99 < s.P95 || s.P99 > s.Max {
		t.Errorf("P99 = %v out of order (P95 %v, Max %v)", s.P99, s.P95, s.Max)
	}
}

// Property: Min <= P50 <= P95 <= Max and Min <= Mean <= Max for any sample.
func TestSummarizeOrderingProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			// Bound the domain: summation of extreme magnitudes overflows,
			// which is outside what experiment timings ever produce.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.Max &&
			s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Summarize sorts a copy: the caller's slice keeps its order.
func TestSummarizeLeavesInputAlone(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 9, 7}
	if s := Summarize(xs); s.Min != 1 || s.Max != 9 || s.N != len(xs) {
		t.Fatalf("summary = %+v", s)
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3, 9, 7}) {
		t.Fatalf("Summarize reordered its input: %v", xs)
	}
}

func TestTableFormatting(t *testing.T) {
	tb := NewTable("Figure 2", "processes", "latency")
	tb.Add(16, 2100*time.Millisecond)
	tb.Add(64, 2.135)
	out := tb.String()
	if !strings.Contains(out, "Figure 2") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "2.100s") {
		t.Errorf("duration not formatted as seconds:\n%s", out)
	}
	if !strings.Contains(out, "2.135") {
		t.Errorf("float not formatted:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: every data line must be at least as wide as the header.
	if len(lines[3]) < len(lines[1])-8 {
		t.Errorf("row narrower than header:\n%s", out)
	}
}
