package experiments

import (
	"fmt"
	"time"

	"cogrid/internal/grid"
	"cogrid/internal/metrics"
	"cogrid/internal/slo"
	"cogrid/internal/workload"
)

// --- B7: SLO detection latency under injected faults ---

// sloSetting is one size of the detection-latency study: B2's chaos
// workload with the SLO engine armed, measuring how long (in virtual time)
// the observability plane takes to notice each fault plan.
type sloSetting struct {
	chaos chaosSetting
	// faultRates is the swept per-machine fault probability, one row each.
	faultRates []float64
	// evalInterval is the engine's evaluation cadence; the evaluation
	// horizon lags wall time by the same amount, so it is a floor on any
	// achievable detection lag.
	evalInterval time.Duration
	// detectBudget bounds the acceptable lag from the first fault onset to
	// the first alert fire on a faulted row.
	detectBudget time.Duration
}

// B7's two sizes, on B2's: the smoke one is what `benchgrid -app slo
// -smoke`, the exposition-completeness test of internal/grid and `gridtop
// -smoke` run, at the seed ChaosSeed shifts.
var (
	sloFull = sloSetting{chaos: chaosFull, faultRates: []float64{0, 0.5, 1},
		evalInterval: 15 * time.Second, detectBudget: 5 * time.Minute}
	sloSmoke = sloSetting{chaos: chaosSmoke, faultRates: []float64{0, 0.75},
		evalInterval: 15 * time.Second, detectBudget: 5 * time.Minute}
)

// SLORow is one fault-rate setting's outcome. Alerts/Resolves count the
// engine's edge transitions; Dumps counts every black box the flight
// recorder froze (SLO fires plus watchdog, orphan, and crash triggers);
// DetectionLag is first-alert-fire minus first-fault-onset; DumpErrors
// counts the audit's flight-dump violations.
type SLORow struct {
	FaultRate    float64              `json:"fault_rate"`
	Faults       int                  `json:"faults"`
	FirstFault   time.Duration        `json:"first_fault,omitempty"`
	Requests     int                  `json:"requests"`
	Completed    int                  `json:"completed"`
	Failed       int                  `json:"failed"`
	Alerts       int                  `json:"alerts"`
	Resolves     int                  `json:"resolves"`
	FirstRule    string               `json:"first_rule,omitempty"`
	Dumps        int                  `json:"dumps"`
	SLODumps     int                  `json:"slo_dumps"`
	DumpSkipped  int64                `json:"dump_skipped,omitempty"`
	DumpErrors   int                  `json:"dump_errors"`
	Detected     bool                 `json:"detected"`
	DetectionLag time.Duration        `json:"detection_lag,omitempty"`
	Violations   []workload.Violation `json:"violations,omitempty"`
}

// SLOResult is the B7 study.
type SLOResult struct {
	Machines     int           `json:"machines"`
	Workers      int           `json:"workers"`
	EvalInterval time.Duration `json:"eval_interval"`
	DetectBudget time.Duration `json:"detect_budget"`
	Rows         []SLORow      `json:"rows"`
}

// sloRules is the study's objective set, scaled to the chaos workload.
// Unlike the DST rules (which must stay silent across arbitrary random
// scenarios), these watch user-facing symptoms — request latency and
// queue depth — whose healthy envelope is known because the workload is
// fixed.
func sloRules(s chaosSetting) []slo.Rule {
	return []slo.Rule{
		{
			// Burn rate on the broker's served-request latency: healthy
			// requests finish well under half the submit budget; burning
			// more than a quarter of the window's requests past it means
			// clients are feeling the fault.
			Name: "broker-latency-burn", Kind: slo.KindBurnRate, Severity: "page",
			Metric:    "broker.request.latency@broker0",
			Threshold: s.submitBudget / 2, Budget: 0.25,
			Window: s.submitBudget, MinCount: 3,
		},
		{
			// Sustained deep queue: the broker's admission bound is 16; a
			// backlog parked at 12+ for a minute and a half means workers
			// are wedged, not merely busy.
			Name: "broker-queue-depth", Kind: slo.KindGaugeLevel, Severity: "warn",
			Metric: "broker.queue_depth@broker0",
			Op:     ">=", Value: 12, HoldFor: 90 * time.Second,
		},
		{
			// Any message the transport destroyed (buffer overflow,
			// unreachable peer, send-queue full) within the window.
			Name: "transport-drop-storm", Kind: slo.KindRateDelta, Severity: "page",
			Metric: "transport.drops", Window: 2 * time.Minute, Value: 1,
		},
		{
			// An orphaned allocation is an SLO breach in itself: processors
			// are held by a job whose co-allocation already failed.
			Name: "broker-orphans", Kind: slo.KindGaugeLevel, Severity: "page",
			Metric: "broker.orphans@broker0",
			Op:     ">=", Value: 1,
		},
	}
}

// SLORun executes one row of the study at the given size and seed
// (ChaosSeed applies): the B2 chaos workload with the engine armed before
// the first arrival. The returned grid and engine carry the run's
// full observability state (alert log, dumps, gauges, histograms) for
// callers that render it — gridtop replays exactly this run.
func SLORun(seed int64, smoke bool, faultRate float64) (SLORow, *grid.Grid, *slo.Engine) {
	return sloRun(setting(smoke, sloFull, sloSmoke), ChaosSeed(seed, smoke), faultRate)
}

// sloRun executes one row on s.
func sloRun(s sloSetting, seed int64, faultRate float64) (SLORow, *grid.Grid, *slo.Engine) {
	crow, g, eng := chaosRun(s.chaos, seed, faultRate, s.evalInterval)

	row := SLORow{
		FaultRate:  crow.FaultRate,
		Faults:     crow.Faults,
		FirstFault: crow.FirstFault,
		Requests:   crow.Requests,
		Completed:  crow.Completed,
		Failed:     crow.Failed,
		Violations: crow.Violations,
	}
	alerts := eng.Alerts()
	for _, a := range alerts {
		switch a.State {
		case "fire":
			row.Alerts++
			if !row.Detected {
				row.Detected = true
				row.FirstRule = a.Rule
				row.DetectionLag = a.At - row.FirstFault
			}
		case "resolve":
			row.Resolves++
		}
	}
	dumps := g.Flight.Dumps()
	row.Dumps = len(dumps)
	row.DumpSkipped = g.Flight.Skipped()
	for _, d := range dumps {
		if d.Kind() == "slo" {
			row.SLODumps++
		}
	}
	for _, v := range row.Violations {
		if v.Invariant == "flight-dump" {
			row.DumpErrors++
		}
	}
	return row, g, eng
}

// SLOStudy sweeps the fault rate at the given size.
func SLOStudy(seed int64, smoke bool) SLOResult {
	s := setting(smoke, sloFull, sloSmoke)
	seed = ChaosSeed(seed, smoke)
	res := SLOResult{
		Machines:     s.chaos.machines,
		Workers:      s.chaos.workers,
		EvalInterval: s.evalInterval,
		DetectBudget: s.detectBudget,
	}
	for _, rate := range s.faultRates {
		row, _, _ := sloRun(s, seed, rate)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Check is the study's acceptance gate: every row's audit is clean, and
// every faulted row detects its plan within the budget. Returns one message
// per violation.
func (r SLOResult) Check() []string {
	var bad []string
	for _, row := range r.Rows {
		id := fmt.Sprintf("rate %.2f", row.FaultRate)
		bad = append(bad, workload.Gate(id, row.Violations)...)
		switch {
		case row.Faults == 0:
		case !row.Detected:
			bad = append(bad, fmt.Sprintf("%s: %d faults injected but no alert fired", id, row.Faults))
		case row.DetectionLag < 0:
			bad = append(bad, fmt.Sprintf("%s: alert %s fired %v before the first fault",
				id, row.FirstRule, -row.DetectionLag))
		case row.DetectionLag > r.DetectBudget:
			bad = append(bad, fmt.Sprintf("%s: detection lag %v exceeds budget %v",
				id, row.DetectionLag, r.DetectBudget))
		}
	}
	return bad
}

// Table renders the study.
func (r SLOResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("B7: SLO detection latency, %d machines, %d workers, eval every %v, budget %v",
			r.Machines, r.Workers, r.EvalInterval, r.DetectBudget),
		"fault rate", "faults", "reqs", "ok", "fail", "alerts",
		"resolved", "first rule", "dumps", "lag")
	for _, row := range r.Rows {
		lag := "-"
		if row.Detected {
			lag = row.DetectionLag.String()
		}
		first := row.FirstRule
		if first == "" {
			first = "-"
		}
		t.Add(fmt.Sprintf("%.2f", row.FaultRate), row.Faults, row.Requests,
			row.Completed, row.Failed, row.Alerts, row.Resolves, first,
			fmt.Sprintf("%d/%d", row.SLODumps, row.Dumps), lag)
	}
	return t
}
