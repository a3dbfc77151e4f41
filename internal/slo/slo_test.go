package slo

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"cogrid/internal/flightrec"
	"cogrid/internal/metrics"
	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

type rig struct {
	sim     *vtime.Sim
	tracer  *trace.Tracer
	ctrs    *trace.Counters
	gauges  *metrics.GaugeSet
	samples *metrics.SampleLogSet
	flight  *flightrec.Recorder
}

func newRig(seed int64) rig {
	sim := vtime.NewSeeded(seed)
	r := rig{
		sim:     sim,
		tracer:  trace.New(sim),
		ctrs:    trace.NewCounters(),
		gauges:  metrics.NewGaugeSet(sim),
		samples: metrics.NewSampleLogSet(sim),
		flight:  flightrec.New(sim, flightrec.Options{}),
	}
	r.tracer.SetTap(r.flight)
	r.flight.SetCounters(r.ctrs)
	return r
}

func (r rig) deps() Deps {
	return Deps{Sim: r.sim, Tracer: r.tracer, Counters: r.ctrs,
		Gauges: r.gauges, Samples: r.samples, Flight: r.flight}
}

func TestBurnRateFiresAndResolves(t *testing.T) {
	r := newRig(1)
	e := New(r.deps(), []Rule{{
		Name: "lat", Kind: KindBurnRate, Metric: "svc.latency", Severity: "page",
		Threshold: 100 * time.Millisecond, Budget: 0.25, Window: time.Minute, MinCount: 4,
	}}, Options{EvalInterval: 10 * time.Second})
	e.Start()
	err := r.sim.Run("main", func() {
		log := r.samples.L("svc.latency")
		// Healthy first minute: fast samples only.
		for i := 0; i < 6; i++ {
			r.sim.Sleep(10 * time.Second)
			log.Record(int64(10 * time.Millisecond))
		}
		// Then a breach: every sample blows the threshold.
		for i := 0; i < 8; i++ {
			r.sim.Sleep(10 * time.Second)
			log.Record(int64(time.Second))
		}
		// Then recovery: the bad samples age out of the window.
		for i := 0; i < 12; i++ {
			r.sim.Sleep(10 * time.Second)
			log.Record(int64(10 * time.Millisecond))
		}
		r.sim.Sleep(time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	e.Stop()
	alerts := e.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("want fire+resolve, got %+v", alerts)
	}
	if alerts[0].State != "fire" || alerts[1].State != "resolve" || alerts[0].Rule != "lat" {
		t.Fatalf("unexpected transitions: %+v", alerts)
	}
	if alerts[0].Value < 1 {
		t.Fatalf("fire burn multiple %g < 1", alerts[0].Value)
	}
	if got := r.ctrs.Get("slo.alert.fire@lat"); got != 1 {
		t.Fatalf("fire counter: %d", got)
	}
	if got := r.ctrs.Get("slo.alert.resolve@lat"); got != 1 {
		t.Fatalf("resolve counter: %d", got)
	}
	if got := r.gauges.G("slo.alerts.active").Value(r.sim.Now()); got != 0 {
		t.Fatalf("active gauge after resolve: %g", got)
	}
	// Each fire froze exactly one black box.
	dumps := r.flight.Dumps()
	if len(dumps) != 1 || dumps[0].Kind() != "slo" {
		t.Fatalf("dumps: %+v", dumps)
	}
}

func TestGaugeLevelHoldFor(t *testing.T) {
	r := newRig(1)
	e := New(r.deps(), []Rule{{
		Name: "deep-queue", Kind: KindGaugeLevel, Metric: "q.depth",
		Op: ">=", Value: 5, HoldFor: 30 * time.Second, Severity: "warn",
	}}, Options{EvalInterval: 10 * time.Second})
	e.Start()
	err := r.sim.Run("main", func() {
		g := r.gauges.G("q.depth")
		g.Add(6) // breach level from t=0...
		r.sim.Sleep(25 * time.Second)
		g.Add(-6) // ...but clears before HoldFor: no alert
		r.sim.Sleep(time.Minute)
		g.Add(6) // breach again, held past HoldFor: fires
		r.sim.Sleep(2 * time.Minute)
		g.Add(-6)
		r.sim.Sleep(time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	e.Stop()
	alerts := e.Alerts()
	if len(alerts) != 2 || alerts[0].State != "fire" || alerts[1].State != "resolve" {
		t.Fatalf("want one fire+resolve (blip suppressed), got %+v", alerts)
	}
	if alerts[0].At < (25+60+30)*time.Second {
		t.Fatalf("fired before HoldFor elapsed: %+v", alerts[0])
	}
}

func TestRateDeltaWindow(t *testing.T) {
	r := newRig(1)
	e := New(r.deps(), []Rule{{
		Name: "drop-storm", Kind: KindRateDelta, Metric: "drops",
		Window: time.Minute, Value: 3, Severity: "page",
	}}, Options{EvalInterval: 10 * time.Second})
	e.Start()
	err := r.sim.Run("main", func() {
		g := r.gauges.G("drops")
		r.sim.Sleep(30 * time.Second)
		g.Add(2) // below the firing delta
		r.sim.Sleep(2 * time.Minute)
		g.Add(4) // storm: fires, then resolves as the window slides past
		r.sim.Sleep(3 * time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	e.Stop()
	alerts := e.Alerts()
	if len(alerts) != 2 || alerts[0].State != "fire" || alerts[1].State != "resolve" {
		t.Fatalf("want fire+resolve, got %+v", alerts)
	}
	if alerts[0].Value != 4 {
		t.Fatalf("fire delta: %g", alerts[0].Value)
	}
}

// TestAlertTraceEventsAreWellFormedDaemonTrees pins the causal-analysis
// contract: alert instants carry a request context (so coverage counts
// them) rooted as daemon trees (so per-tree checks skip them).
func TestAlertTraceEventsAreWellFormed(t *testing.T) {
	r := newRig(1)
	e := New(r.deps(), []Rule{{
		Name: "lvl", Kind: KindGaugeLevel, Metric: "g", Op: ">=", Value: 1,
	}}, Options{EvalInterval: 10 * time.Second})
	e.Start()
	err := r.sim.Run("main", func() {
		r.gauges.G("g").Add(1)
		r.sim.Sleep(time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	e.Stop()
	events := r.tracer.Events()
	trace.Sort(events)
	var alertEvents int
	for _, ev := range events {
		if ev.Cat != "slo" {
			continue
		}
		alertEvents++
		if ev.Req != "slo@lvl" || !strings.HasPrefix(ev.Span, "req/") {
			t.Fatalf("alert event not in a daemon tree: %+v", ev)
		}
	}
	if alertEvents == 0 {
		t.Fatal("no alert trace events emitted")
	}
	if problems := trace.Analyze(events).Check(); len(problems) > 0 {
		t.Fatalf("causal check rejects alert events: %v", problems)
	}
}

// runDeterminismWorkload drives a mixed rule set over racy concurrent
// writers and returns the serialized alert log.
func runDeterminismWorkload(t *testing.T, seed int64) []byte {
	t.Helper()
	r := newRig(seed)
	e := New(r.deps(), []Rule{
		{Name: "lat", Kind: KindBurnRate, Metric: "svc.latency",
			Threshold: 50 * time.Millisecond, Budget: 0.3, Window: time.Minute, MinCount: 2},
		{Name: "drops", Kind: KindRateDelta, Metric: "drops", Window: time.Minute, Value: 2},
	}, Options{EvalInterval: 10 * time.Second})
	e.Start()
	err := r.sim.Run("main", func() {
		wg := vtime.NewWaitGroup(r.sim)
		wg.Add(4)
		for p := 0; p < 4; p++ {
			p := p
			r.sim.Go(fmt.Sprintf("w%d", p), func() {
				defer wg.Done()
				for i := 1; i <= 30; i++ {
					r.sim.SleepUntil(time.Duration(i) * 10 * time.Second)
					// All four writers hit the same instants concurrently.
					lat := 10 * time.Millisecond
					if i > 10 && i < 20 {
						lat = time.Second
					}
					r.samples.L("svc.latency").Record(int64(lat))
					if i == 15 {
						r.gauges.G("drops").Add(1)
					}
				}
			})
		}
		wg.Wait()
		r.sim.Sleep(2 * time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	e.Stop()
	var buf bytes.Buffer
	if err := e.WriteLog(&buf); err != nil {
		t.Fatalf("write log: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("workload fired no alerts")
	}
	return buf.Bytes()
}

// TestAlertLogDeterministic pins byte-identical alert logs for identical
// runs despite same-instant writer races (run under -race in CI).
func TestAlertLogDeterministic(t *testing.T) {
	a := runDeterminismWorkload(t, 3)
	b := runDeterminismWorkload(t, 3)
	if !bytes.Equal(a, b) {
		t.Fatalf("alert logs differ:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

func TestBurnRateMinCountSuppresses(t *testing.T) {
	r := newRig(1)
	e := New(r.deps(), []Rule{{
		Name: "lat", Kind: KindBurnRate, Metric: "svc.latency",
		Threshold: time.Millisecond, Budget: 0.1, Window: time.Minute, MinCount: 5,
	}}, Options{EvalInterval: 10 * time.Second})
	e.Start()
	err := r.sim.Run("main", func() {
		// Two terrible samples — but below MinCount, so no alert.
		r.sim.Sleep(15 * time.Second)
		r.samples.L("svc.latency").Record(int64(time.Hour))
		r.samples.L("svc.latency").Record(int64(time.Hour))
		r.sim.Sleep(2 * time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	e.Stop()
	if got := e.Alerts(); len(got) != 0 {
		t.Fatalf("tiny-n alert fired: %+v", got)
	}
}

func TestStringAndActiveRules(t *testing.T) {
	r := newRig(1)
	e := New(r.deps(), []Rule{
		{Name: "a", Kind: KindGaugeLevel, Metric: "g", Op: ">=", Value: 1, Severity: "page"},
	}, Options{EvalInterval: 10 * time.Second})
	if e.String() != "none" {
		t.Fatalf("idle engine: %q", e.String())
	}
	e.Start()
	err := r.sim.Run("main", func() {
		r.gauges.G("g").Add(2)
		r.sim.Sleep(time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	e.Stop()
	if active := e.ActiveRules(); len(active) != 1 || e.String() != "a" {
		t.Fatalf("active=%q string=%q", active, e.String())
	}
}
