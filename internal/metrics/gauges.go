package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"cogrid/internal/vtime"
)

// Gauges are virtual-time level indicators: queue depth, outstanding 2PC
// transactions, busy processors per machine, unreaped orphans. A gauge
// does not store its "current value". It stores a delta log of (virtual
// time, change) pairs; the value at sample time t is the sum of all deltas
// stamped at or before t. Several simulated processes may change a gauge
// within one virtual instant. Under the run token they do so in a FIFO
// order that is a function of the seed, so same-seed runs already agree;
// what the delta log adds is that a sampled series does not depend on that
// tie order either, since sums within an instant are order-independent.
// Nothing checks that independence yet.

// GaugeSet is a registry of named gauges sharing one virtual clock. All
// methods are nil-safe: a nil *GaugeSet (the default everywhere) records
// nothing.
type GaugeSet struct {
	sim    *vtime.Sim
	gauges map[string]*Gauge
}

// NewGaugeSet creates a gauge registry stamping deltas with sim's clock.
func NewGaugeSet(sim *vtime.Sim) *GaugeSet {
	return &GaugeSet{sim: sim, gauges: map[string]*Gauge{}}
}

// G returns the gauge named name, creating it on first use. Returns nil on
// a nil set, and a nil *Gauge accepts Add as a no-op, so call sites never
// need a guard.
func (s *GaugeSet) G(name string) *Gauge {
	if s == nil {
		return nil
	}
	g := s.gauges[name]
	if g == nil {
		g = &Gauge{sim: s.sim}
		s.gauges[name] = g
	}
	return g
}

// Names returns the registered gauge names, sorted.
func (s *GaugeSet) Names() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.gauges))
	for n := range s.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Gauge is one level indicator backed by a delta log. The log stores
// running prefix sums rather than raw deltas: the virtual clock is frozen
// while any process runs, so entries are appended in nondecreasing virtual
// time, and the value at any t is just the prefix sum at the last entry
// stamped at or before t — a binary search instead of a full-log scan.
// Prefix sums are accumulated in append order, the exact order the old
// scan summed in, so every reported value is bit-identical to the delta-log
// implementation; and because the last entry of an instant's run folds in
// all of that instant's deltas, sampling stays order-independent within an
// instant.
type Gauge struct {
	sim     *vtime.Sim
	entries []gaugeEntry
}

type gaugeEntry struct {
	at  time.Duration
	cum float64 // prefix sum of all deltas up to and including this entry
}

// Add applies a signed change to the gauge at the current virtual time.
// Nil-safe.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	var cum float64
	if n := len(g.entries); n > 0 {
		cum = g.entries[n-1].cum
	}
	g.entries = append(g.entries, gaugeEntry{at: g.sim.Now(), cum: cum + d})
}

// Value returns the gauge value at virtual time t: the sum of all deltas
// stamped at or before t. Order-independent within an instant, so sampling
// at a fixed t is deterministic for same-seed runs. Nil-safe.
func (g *Gauge) Value(t time.Duration) float64 {
	if g == nil {
		return 0
	}
	return g.at(t)
}

// at returns the gauge value at time t: the prefix sum at the last entry
// stamped <= t. O(log n), allocation-free — cheap enough to sample gauges
// at a fine cadence over a million-job run.
func (g *Gauge) at(t time.Duration) float64 {
	// First entry with at > t; the value is the prefix sum just before it.
	i := sort.Search(len(g.entries), func(i int) bool { return g.entries[i].at > t })
	if i == 0 {
		return 0
	}
	return g.entries[i-1].cum
}

// DeltaBetween returns the net change over the half-open virtual-time
// window (from, to]: the sum of deltas stamped after from and at or before
// to. Like Value it is order-independent within an instant, so windowed
// rate queries at fixed horizons are deterministic. Nil-safe.
func (g *Gauge) DeltaBetween(from, to time.Duration) float64 {
	if g == nil {
		return 0
	}
	return g.at(to) - g.at(from)
}

// Series is a fixed-cadence resampling of a gauge set: Values[i][j] is
// gauge Names[j] at virtual time Times[i].
type Series struct {
	Step   time.Duration
	Names  []string
	Times  []time.Duration
	Values [][]float64
}

// Series samples every gauge at the fixed cadence step over [0, until],
// inclusive of the final partial step. The result depends only on the
// delta logs, never on sampling order, so same-seed runs produce identical
// series.
func (s *GaugeSet) Series(step, until time.Duration) Series {
	se := Series{Step: step, Names: s.Names()}
	if s == nil || step <= 0 {
		return se
	}
	for t := time.Duration(0); ; t += step {
		if t > until {
			break
		}
		row := make([]float64, len(se.Names))
		for j, name := range se.Names {
			row[j] = s.G(name).at(t)
		}
		se.Times = append(se.Times, t)
		se.Values = append(se.Values, row)
	}
	return se
}

// WriteCSV writes the series as CSV: a header of "t_sec" plus gauge names,
// then one row per sample. Values are formatted with strconv 'g', which is
// deterministic for the integral counts gauges hold.
func (se Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "t_sec,%s\n", strings.Join(se.Names, ",")); err != nil {
		return err
	}
	for i, t := range se.Times {
		cells := make([]string, 0, len(se.Values[i])+1)
		cells = append(cells, strconv.FormatFloat(t.Seconds(), 'g', -1, 64))
		for _, v := range se.Values[i] {
			cells = append(cells, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}
