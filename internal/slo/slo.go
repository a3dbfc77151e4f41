// Package slo is the alerting half of the observability stack: a rule
// engine that evaluates windowed service-level objectives over the
// virtual-time metric streams — burn rates over latency sample logs,
// gauge levels held over time, windowed deltas over drop gauges — and
// fires edge-triggered alerts while the run is still in flight.
//
// Alerts are first-class observability objects: each fire/resolve is a
// trace event (rooted in its own "slo@<rule>" daemon tree so causal
// analysis sees it), a counter (so Prometheus exposition exports it), a
// line in the engine's deterministic alert log, and — on fire — a flight
// recorder trigger freezing the black box of the moments before the
// breach.
//
// # Determinism
//
// Every rule is evaluated at a lagged horizon h = now - EvalInterval rather
// than at the wake instant. Virtual time only advances when every simulated
// process is blocked, so once the clock passes h the set of gauge deltas
// and samples stamped at or before h is final: evaluating at h reads
// settled history, whatever else happens at the wake instant. Two same-seed
// runs produce byte-identical alert logs — the property the DST
// determinism tests pin down — and under the run token they would without
// the lag too, since same-instant events run in a FIFO order that is a
// function of the seed. What the lag still buys is an alert log that does
// not depend on that tie order: whether the engine wakes before or after a
// writer of the same instant. Nothing checks that independence yet.
package slo

import (
	"fmt"
	"io"
	"strings"
	"time"

	"cogrid/internal/flightrec"
	"cogrid/internal/metrics"
	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// Kind selects a rule's evaluation strategy.
type Kind string

const (
	// KindBurnRate treats samples above Threshold as error-budget burn:
	// the rule breaches when the bad fraction over Window reaches
	// Budget*Burn (and, when ShortWindow is set, also over ShortWindow —
	// the classic two-window burn-rate alert that ignores stale burn).
	KindBurnRate Kind = "burn-rate"
	// KindGaugeLevel breaches when gauge Metric compares true against
	// Value under Op continuously for HoldFor.
	KindGaugeLevel Kind = "gauge-level"
	// KindRateDelta breaches when gauge Metric's net change over the
	// trailing Window is at least Value.
	KindRateDelta Kind = "rate-delta"
)

// Rule is one windowed objective.
type Rule struct {
	// Name identifies the rule in alerts, counters, and trace events.
	Name string
	// Kind selects the evaluation strategy.
	Kind Kind
	// Metric names the sample log (burn-rate) or gauge (level, delta).
	Metric string
	// Severity is a label carried on alerts ("page", "warn").
	Severity string

	// Threshold marks a burn-rate sample bad when it exceeds this value
	// (sample logs store int64; latency logs store nanoseconds).
	Threshold time.Duration
	// Budget is the tolerated bad fraction (e.g. 0.25).
	Budget float64
	// Burn is the budget multiplier that fires (default 1).
	Burn float64
	// Window is the evaluation lookback.
	Window time.Duration
	// ShortWindow, when set, must also burn for the rule to breach.
	ShortWindow time.Duration
	// MinCount suppresses burn-rate evaluation below this many samples
	// in Window (default 1), guarding tiny-n noise.
	MinCount int

	// Op compares the gauge level: ">=" or "<=".
	Op string
	// Value is the level threshold (gauge-level) or the windowed delta
	// that fires (rate-delta).
	Value float64
	// HoldFor requires the level breach to persist this long before
	// firing (zero fires immediately).
	HoldFor time.Duration
}

// Alert is one edge transition of a rule.
type Alert struct {
	// At is the evaluation horizon the transition was observed at.
	At time.Duration `json:"at_ns"`
	// Rule names the rule.
	Rule string `json:"rule"`
	// Severity mirrors the rule's severity label.
	Severity string `json:"severity"`
	// State is "fire" or "resolve".
	State string `json:"state"`
	// Value is the measured quantity at the transition (burn multiple,
	// gauge level, or windowed delta).
	Value float64 `json:"value"`
	// Detail is deterministic human-readable context.
	Detail string `json:"detail"`
}

// Options configures the engine. Zero values select the defaults.
type Options struct {
	// EvalInterval is the wake cadence (default 5s). The evaluation
	// horizon lags the wake time by the same amount — at least one tick,
	// which independence from the tie order within an instant needs.
	EvalInterval time.Duration
}

func (o *Options) fill() {
	if o.EvalInterval <= 0 {
		o.EvalInterval = 5 * time.Second
	}
}

// Deps wires the engine to a run's observability registries. Tracer,
// Counters, Gauges and Flight may be nil (each output degrades to a
// no-op); Samples may be nil only if no burn-rate rule is used.
type Deps struct {
	Sim      *vtime.Sim
	Tracer   *trace.Tracer
	Counters *trace.Counters
	Gauges   *metrics.GaugeSet
	Samples  *metrics.SampleLogSet
	Flight   *flightrec.Recorder
}

type ruleState struct {
	active   bool
	badSince time.Duration // first horizon the level was bad; -1 when good
	ctx      trace.Ctx
}

// Engine evaluates rules on a virtual-time cadence. Create with New,
// start with Start, stop with Stop.
type Engine struct {
	deps  Deps
	rules []Rule
	opts  Options
	stop  *vtime.Event

	states []ruleState
	alerts []Alert
	evals  int64
}

// New creates an engine over deps evaluating rules.
func New(deps Deps, rules []Rule, opts Options) *Engine {
	opts.fill()
	e := &Engine{deps: deps, rules: rules, opts: opts,
		stop:   vtime.NewEvent(deps.Sim, "slo-engine-stop"),
		states: make([]ruleState, len(rules))}
	for i, r := range rules {
		e.states[i].badSince = -1
		e.states[i].ctx = deps.Tracer.Child(trace.NewRequest("slo@"+r.Name), "alert")
	}
	return e
}

// Start launches the evaluation daemon. Call once.
func (e *Engine) Start() {
	e.deps.Sim.GoDaemon("slo-engine", func() {
		for {
			if e.stop.WaitTimeout(e.opts.EvalInterval) {
				return
			}
			e.evaluate(e.deps.Sim.Now())
		}
	})
}

// Stop halts the daemon after its current tick.
func (e *Engine) Stop() { e.stop.Set() }

// EvaluateAt runs one evaluation pass at horizon h. The daemon calls this
// on its cadence; tests and replay tools may call it directly for any
// horizon the virtual clock has passed.
func (e *Engine) EvaluateAt(h time.Duration) {
	if h < 0 {
		return
	}
	e.evals++
	for i := range e.rules {
		e.evalRule(i, h)
	}
}

func (e *Engine) evaluate(now time.Duration) {
	e.EvaluateAt(now - e.opts.EvalInterval)
}

// evalRule evaluates rule i at horizon h and records any edge transition.
func (e *Engine) evalRule(i int, h time.Duration) {
	r := e.rules[i]
	st := &e.states[i]
	var breach bool
	var value float64
	var detail string
	switch r.Kind {
	case KindBurnRate:
		breach, value, detail = e.evalBurn(r, h)
	case KindGaugeLevel:
		level := e.deps.Gauges.G(r.Metric).Value(h)
		bad := compare(level, r.Op, r.Value)
		if bad {
			if st.badSince < 0 {
				st.badSince = h
			}
			breach = h-st.badSince >= r.HoldFor
		} else {
			st.badSince = -1
		}
		value = level
		detail = fmt.Sprintf("level=%g %s %g", level, r.Op, r.Value)
	case KindRateDelta:
		d := e.deps.Gauges.G(r.Metric).DeltaBetween(h-r.Window, h)
		breach = d >= r.Value
		value = d
		detail = fmt.Sprintf("delta=%g over %s (fires at %g)", d, r.Window, r.Value)
	}
	if breach == st.active {
		return
	}
	st.active = breach
	state := "resolve"
	if breach {
		state = "fire"
	}
	al := Alert{At: h, Rule: r.Name, Severity: r.Severity, State: state, Value: value, Detail: detail}
	e.alerts = append(e.alerts, al)
	e.deps.Counters.AddKey("slo", "alert", state, r.Name, 1)
	if breach {
		e.deps.Gauges.G("slo.alerts.active").Add(1)
	} else {
		e.deps.Gauges.G("slo.alerts.active").Add(-1)
	}
	e.deps.Tracer.InstantCtx(st.ctx, "slo", state, "slo-engine", r.Name, "",
		trace.Arg{Key: "value", Val: fmt.Sprintf("%g", value)},
		trace.Arg{Key: "detail", Val: detail})
	if breach {
		e.deps.Flight.Trigger("slo:"+r.Name, detail)
	}
}

func (e *Engine) evalBurn(r Rule, h time.Duration) (bool, float64, string) {
	minCount := r.MinCount
	if minCount <= 0 {
		minCount = 1
	}
	burnAt := r.Burn
	if burnAt <= 0 {
		burnAt = 1
	}
	log := e.deps.Samples.L(r.Metric)
	long := log.Window(h-r.Window, h)
	n := long.Count()
	if n < minCount {
		return false, 0, fmt.Sprintf("burn=0 n=%d<min %d", n, minCount)
	}
	bad := long.CountAbove(int64(r.Threshold))
	burn := float64(bad) / float64(n) / r.Budget
	breach := burn >= burnAt
	if breach && r.ShortWindow > 0 {
		// Two-window rule: recent traffic must still be burning, so a
		// long-resolved spike cannot keep the alert pinned.
		short := log.Window(h-r.ShortWindow, h)
		sn := short.Count()
		if sn < minCount {
			breach = false
		} else if float64(short.CountAbove(int64(r.Threshold)))/float64(sn)/r.Budget < burnAt {
			breach = false
		}
	}
	return breach, burn, fmt.Sprintf("burn=%.3f bad=%d/%d over %s (>%s, budget %g)",
		burn, bad, n, r.Window, r.Threshold, r.Budget)
}

func compare(v float64, op string, bound float64) bool {
	switch op {
	case "<=":
		return v <= bound
	default: // ">=" is the default comparison
		return v >= bound
	}
}

// Alerts returns a copy of the alert log in firing order — deterministic
// because only the single engine daemon appends.
func (e *Engine) Alerts() []Alert {
	out := make([]Alert, len(e.alerts))
	copy(out, e.alerts)
	return out
}

// Fires returns how many fire transitions were recorded.
func (e *Engine) Fires() int {
	n := 0
	for _, a := range e.alerts {
		if a.State == "fire" {
			n++
		}
	}
	return n
}

// ActiveRules returns the names of currently-breaching rules, in rule
// declaration order.
func (e *Engine) ActiveRules() []string {
	var out []string
	for i, st := range e.states {
		if st.active {
			out = append(out, e.rules[i].Name)
		}
	}
	return out
}

// WriteLog writes the alert log as JSONL, one alert per line, in firing
// order — byte-identical across same-seed runs.
func (e *Engine) WriteLog(w io.Writer) error {
	for _, a := range e.Alerts() {
		if _, err := fmt.Fprintf(w, `{"at_ns":%d,"rule":%q,"severity":%q,"state":%q,"value":%g,"detail":%q}`+"\n",
			int64(a.At), a.Rule, a.Severity, a.State, a.Value, a.Detail); err != nil {
			return err
		}
	}
	return nil
}

// String renders active alerts for dashboards: "rule(severity)" joined by
// commas, or "none".
func (e *Engine) String() string {
	active := e.ActiveRules()
	if len(active) == 0 {
		return "none"
	}
	return strings.Join(active, ",")
}
