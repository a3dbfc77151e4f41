package metrics

import (
	"testing"
	"time"

	"cogrid/internal/vtime"
)

func TestSampleLogWindow(t *testing.T) {
	sim := vtime.NewSeeded(1)
	set := NewSampleLogSet(sim)
	err := sim.Run("main", func() {
		l := set.L("lat")
		for i := 1; i <= 10; i++ {
			sim.SleepUntil(time.Duration(i) * time.Second)
			l.Record(int64(i) * 100)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	l := set.L("lat")
	if l.Count() != 10 {
		t.Fatalf("count: %d", l.Count())
	}
	// (3s, 7s]: samples at 4..7 seconds, values 400..700.
	w := l.Window(3*time.Second, 7*time.Second)
	if w.Count() != 4 {
		t.Fatalf("window count: %d", w.Count())
	}
	if got := w.CountAbove(500); got != 2 {
		t.Fatalf("count above 500: %d", got)
	}
	// Empty window and boundary exclusivity: (7s, 7s] holds nothing.
	if got := l.Window(7*time.Second, 7*time.Second).Count(); got != 0 {
		t.Fatalf("empty window: %d", got)
	}
}

func TestSampleLogNilSafe(t *testing.T) {
	var set *SampleLogSet
	l := set.L("x")
	l.Record(1)
	if l.Count() != 0 || set.Names() != nil {
		t.Fatal("nil set must be inert")
	}
	w := l.Window(0, time.Hour)
	if w.Count() != 0 || w.CountAbove(0) != 0 {
		t.Fatal("nil log window must be empty")
	}
}

func TestGaugeDeltaBetween(t *testing.T) {
	sim := vtime.NewSeeded(1)
	set := NewGaugeSet(sim)
	err := sim.Run("main", func() {
		g := set.G("drops")
		sim.SleepUntil(10 * time.Second)
		g.Add(2)
		sim.SleepUntil(20 * time.Second)
		g.Add(3)
		sim.SleepUntil(30 * time.Second)
		g.Add(-1)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	g := set.G("drops")
	if got := g.DeltaBetween(0, 30*time.Second); got != 4 {
		t.Fatalf("full delta: %g", got)
	}
	// (10s, 20s]: excludes the delta at exactly 10s, includes 20s.
	if got := g.DeltaBetween(10*time.Second, 20*time.Second); got != 3 {
		t.Fatalf("half-open delta: %g", got)
	}
	if got := g.DeltaBetween(20*time.Second, 25*time.Second); got != 0 {
		t.Fatalf("quiet window delta: %g", got)
	}
	var nilG *Gauge
	if nilG.DeltaBetween(0, time.Hour) != 0 {
		t.Fatal("nil gauge delta must be 0")
	}
}
