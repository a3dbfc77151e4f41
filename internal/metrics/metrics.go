// Package metrics provides timing instrumentation for experiments: phase
// timelines (used to render the paper's Figure 5 submission timeline),
// summary statistics, and aligned text tables for the benchmark harness.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"cogrid/internal/vtime"
)

// Span is one timed phase of one actor.
type Span struct {
	Actor string
	Phase string
	Start time.Duration
	End   time.Duration
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Timeline collects spans in virtual time.
type Timeline struct {
	sim   *vtime.Sim
	mu    sync.Mutex
	spans []Span
}

// NewTimeline creates an empty timeline on sim.
func NewTimeline(sim *vtime.Sim) *Timeline { return &Timeline{sim: sim} }

// Start opens a span now; the returned func closes it.
func (t *Timeline) Start(actor, phase string) func() {
	start := t.sim.Now()
	return func() { t.Add(actor, phase, start, t.sim.Now()) }
}

// Add records a completed span. Spans may arrive in any order, but a
// negative-duration span (end < start) is a caller bug — virtual time never
// runs backwards — and Add panics rather than silently corrupting the
// rendered window.
func (t *Timeline) Add(actor, phase string, start, end time.Duration) {
	if end < start {
		panic(fmt.Sprintf("metrics: negative-duration span %s %s: start %v > end %v", actor, phase, start, end))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Actor: actor, Phase: phase, Start: start, End: end})
}

// Spans returns a copy of the recorded spans in insertion order.
func (t *Timeline) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// PhaseTotals sums span durations by phase name.
func (t *Timeline) PhaseTotals() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Phase] += s.Duration()
	}
	return out
}

// Render draws the timeline as a text Gantt chart, one row per span,
// ordered by start time, scaled to width columns.
func (t *Timeline) Render(width int) string {
	spans := t.Spans()
	if len(spans) == 0 {
		return "(empty timeline)\n"
	}
	if width < 10 {
		width = 10
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End < spans[j].End
	})
	minStart, maxEnd := spans[0].Start, spans[0].End
	labelWidth := 0
	for _, s := range spans {
		if s.Start < minStart {
			minStart = s.Start
		}
		if s.End > maxEnd {
			maxEnd = s.End
		}
		if l := len(s.Actor) + 1 + len(s.Phase); l > labelWidth {
			labelWidth = l
		}
	}
	total := maxEnd - minStart
	if total <= 0 {
		total = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-*s |%s|\n", labelWidth, "", header(total, width))
	for _, s := range spans {
		from := int(int64(s.Start-minStart) * int64(width) / int64(total))
		to := int(int64(s.End-minStart) * int64(width) / int64(total))
		// Clamp into the window before widening zero-length bars, so a span
		// ending exactly at maxEnd still paints at least one cell and never
		// spills past the right border.
		if from >= width {
			from = width - 1
		}
		if to > width {
			to = width
		}
		if to <= from {
			to = from + 1
		}
		bar := strings.Repeat(" ", from) + strings.Repeat("#", to-from) + strings.Repeat(" ", width-to)
		fmt.Fprintf(&sb, "%-*s |%s| %8.3fs + %.3fs\n",
			labelWidth, s.Actor+" "+s.Phase, bar,
			s.Start.Seconds(), s.Duration().Seconds())
	}
	return sb.String()
}

func header(total time.Duration, width int) string {
	left := "t=0s"
	right := fmt.Sprintf("t=%.2fs", total.Seconds())
	if len(left)+len(right)+1 > width {
		return strings.Repeat("-", width)
	}
	return left + strings.Repeat("-", width-len(left)-len(right)) + right
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	Max    float64
	P50    float64
	P95    float64
	P99    float64
	Stddev float64
}

// Summarize computes descriptive statistics, percentiles under the
// exclusive-interpolation convention the experiment tables are locked to
// (see percentile). It sorts a copy: xs is neither mutated nor retained. An
// empty sample yields zeros. For fixed-memory streaming aggregation use
// Histogram instead.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	mean := sum / n
	ss := 0.0
	for _, x := range sorted {
		d := x - mean
		ss += d * d
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P50:    percentile(sorted, 0.50),
		P95:    percentile(sorted, 0.95),
		P99:    percentile(sorted, 0.99),
		Stddev: math.Sqrt(ss / n),
	}
}

// percentile interpolates the p-quantile of a sorted sample using the
// exclusive-interpolation convention (Hyndman-Fan type 6, as in
// PERCENTILE.EXC): the 1-based rank is h = p*(n+1), linearly interpolated
// between neighbours and clamped to [1, n], so p = 0.0 yields the minimum
// and p = 1.0 the maximum for every sample size, including n = 1 and n = 2.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	h := p * float64(n+1)
	if h <= 1 {
		return sorted[0]
	}
	if h >= float64(n) {
		return sorted[n-1]
	}
	lo := int(h) // floor; 1 <= lo <= n-1 here
	frac := h - float64(lo)
	return sorted[lo-1]*(1-frac) + sorted[lo]*frac
}

// Table is an aligned text table for experiment output.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row; cells are formatted with %v except float64 (%.3f) and
// time.Duration (seconds with %.3fs).
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3fs", v.Seconds())
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
