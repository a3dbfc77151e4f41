package workload

import (
	"slices"
	"strings"
	"testing"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/slo"
	"cogrid/internal/transport"
)

// TestAuditConvicts holds Audit to both halves of its job: a run that
// breaks a promise is reported under that promise's name, and a run that
// keeps them all is reported clean. The broken runs are a 2PC that commits
// on the first vote, runs that end while their co-allocations still
// compute, a fault-free run whose SLO engine pages on it (the audit's SLO
// half), and clean runs whose orphan ledger or trace is then forged; the
// clean ones drain, one of them through a crash of the leader while its
// jobs run, whose journal entries the survivors must settle (no
// handoff-reap).
func TestAuditConvicts(t *testing.T) {
	const drain = 30*time.Second + time.Minute // smallSpec's work time and a minute
	bugged := smallSpec(0)
	bugged.Bugs = core.Bugs{DoubleCommit: true}
	// Jobs that outlast the federation's three peer-reap intervals are
	// still running, their allocations open in the journal, when an
	// undrained run ends.
	longJobs := smallSpec(3)
	longJobs.WorkTime = 10 * time.Minute
	crash := Fault{Kind: "broker-crash", Target: "fed02", At: 45 * time.Second, Dur: time.Minute}
	// Busy processors are what a healthy run is for: a rule paging on them
	// is a false positive by construction.
	var busy []slo.Rule
	for _, m := range BatchSites(6, 16) {
		busy = append(busy, slo.Rule{Name: "busy-" + m.Name, Kind: slo.KindGaugeLevel,
			Metric: "lrm.busy@" + m.Name, Op: ">=", Value: 1, Severity: "page"})
	}
	for _, c := range []struct {
		name  string
		spec  Spec
		drain time.Duration
		fault []Fault
		// rules, when set, arm an SLO engine the audit then checks too.
		rules []slo.Rule
		// forge, when set, breaks the quiesced testbed's state before the
		// audit, for a rule no short run breaks on its own.
		forge func(tb *Testbed)
		// want lists the invariants the audit must report, each at least
		// once; nil wants a clean audit.
		want []string
	}{
		{"double commit", bugged, drain, nil, nil, nil, []string{"commit-votes"}},
		{"undrained", smallSpec(0), 0, nil, nil, nil, []string{"job-quiescence", "leaked-jobs"}},
		{"undrained federation", longJobs, 0, nil, nil, nil, []string{"handoff-reap"}},
		{"paged while healthy", smallSpec(0), drain, nil, busy, nil, []string{"slo-false-positive"}},
		{"an orphan never reaped", smallSpec(0), drain, nil, nil, func(tb *Testbed) {
			tb.Grid.Counters.AddKey("duroc", "orphan", "record", "broker0", 1)
		}, []string{"orphan-reap"}},
		{"unattributed events", smallSpec(0), drain, nil, nil, func(tb *Testbed) {
			for range len(tb.Grid.Tracer.Events())/50 + 1 {
				tb.Grid.Tracer.Instant("test", "stray", "broker0", "", "")
			}
		}, []string{"trace"}},
		{"drained", smallSpec(0), drain, nil, nil, nil, nil},
		{"replica crash", smallSpec(3), drain, []Fault{crash}, nil, nil, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := NewTestbed(c.spec)
			load := Load{Hosts: hosts(6), Drain: c.drain, Faults: c.fault}
			for i := range load.Hosts {
				load.Arrivals = append(load.Arrivals, 10*time.Second+time.Duration(i)*5*time.Second)
			}
			keyed := c.spec.Replicas > 0
			var eng *slo.Engine
			if c.rules != nil {
				g := tb.Grid
				eng = slo.New(slo.Deps{Sim: g.Sim, Tracer: g.Tracer, Counters: g.Counters,
					Gauges: g.Gauges, Samples: g.Samples, Flight: g.Flight},
					c.rules, slo.Options{EvalInterval: 10 * time.Second})
				eng.Start()
			}
			if _, err := tb.Run(load, func(i, _ int, host *transport.Host) bool {
				reply, _, _, err := Submit(host, tb.Ring, i, host.Name(), request(i, keyed), 0, 50, nil)
				return err == nil && reply.OK()
			}); err != nil {
				t.Fatal(err)
			}
			if eng != nil {
				eng.Stop()
			}
			if c.forge != nil {
				c.forge(tb)
			}
			violations := tb.Audit(eng)
			var got []string
			for _, v := range violations {
				got = append(got, v.Invariant)
			}
			if c.want == nil && len(violations) > 0 {
				t.Fatalf("a clean run was convicted: %v", violations)
			}
			for _, w := range c.want {
				if !slices.Contains(got, w) {
					t.Errorf("want a %s violation, got %v", w, violations)
				}
			}
			if c.fault != nil {
				var handoffs int64
				for _, cv := range tb.Grid.Counters.Snapshot() {
					if strings.HasPrefix(cv.Name, "fed.handoff.") {
						handoffs += cv.Value
					}
				}
				if handoffs == 0 {
					t.Fatal("the crash handed no journal entry off: the case audits no hand-off")
				}
			}
		})
	}
}
