package metrics

import (
	"sort"
	"time"

	"cogrid/internal/vtime"
)

// Sample logs are the windowed twin of histograms. A Histogram aggregates
// forever — perfect for end-of-run quantiles, useless for "p95 over the
// last two minutes". A SampleLog keeps each observation with its virtual
// timestamp so any time window can be re-queried after the fact. The
// multiset of samples stamped at or before a horizon t is final once the
// virtual clock passes t, so a windowed query at a lagged horizon does not
// depend on the order of same-instant samples. Under the run token that
// order is FIFO and a function of the seed, so same-seed runs agree without
// the lag; what it still buys is independence from the tie order, which
// nothing checks yet. The SLO engine evaluates burn rates exclusively
// against these logs (and gauge delta logs), never against live cumulative
// totals.

// SampleLogSet is a registry of named sample logs sharing one virtual
// clock. All methods are nil-safe.
type SampleLogSet struct {
	sim  *vtime.Sim
	logs map[string]*SampleLog
}

// NewSampleLogSet creates a sample-log registry stamping with sim's clock.
func NewSampleLogSet(sim *vtime.Sim) *SampleLogSet {
	return &SampleLogSet{sim: sim, logs: map[string]*SampleLog{}}
}

// L returns the log named name, creating it on first use. Returns nil on a
// nil set; a nil *SampleLog accepts Record as a no-op.
func (s *SampleLogSet) L(name string) *SampleLog {
	if s == nil {
		return nil
	}
	l := s.logs[name]
	if l == nil {
		l = &SampleLog{sim: s.sim}
		s.logs[name] = l
	}
	return l
}

// Names returns the registered log names, sorted.
func (s *SampleLogSet) Names() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.logs))
	for n := range s.logs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SampleLog is one timestamped observation stream.
type SampleLog struct {
	sim     *vtime.Sim
	samples []timedSample
}

type timedSample struct {
	at time.Duration
	v  int64
}

// Record appends v stamped with the current virtual time. Nil-safe.
func (l *SampleLog) Record(v int64) {
	if l == nil {
		return
	}
	l.samples = append(l.samples, timedSample{at: l.sim.Now(), v: v})
}

// Count returns the number of recorded samples. Nil-safe.
func (l *SampleLog) Count() int {
	if l == nil {
		return 0
	}
	return len(l.samples)
}

// Window materializes the samples stamped in the half-open virtual-time
// window (from, to], sorted by value — a deterministic multiset for any
// horizon the virtual clock has passed. Nil-safe (returns an empty window).
func (l *SampleLog) Window(from, to time.Duration) SampleWindow {
	if l == nil {
		return SampleWindow{}
	}
	var vals []int64
	for _, s := range l.samples {
		if s.at > from && s.at <= to {
			vals = append(vals, s.v)
		}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return SampleWindow{values: vals}
}

// SampleWindow is one windowed query result: an immutable sorted multiset.
type SampleWindow struct {
	values []int64
}

// Count returns the number of samples in the window.
func (w SampleWindow) Count() int { return len(w.values) }

// CountAbove returns how many samples exceed v.
func (w SampleWindow) CountAbove(v int64) int {
	return len(w.values) - sort.Search(len(w.values), func(i int) bool { return w.values[i] > v })
}
