package experiments

import (
	"bytes"
	"testing"
	"time"

	"cogrid/internal/flightrec"
	"cogrid/internal/slo"
)

func sloSmokeConfig() SLOConfig { return SLOSmokeConfig(3) }

// sloArtifacts runs the faulted smoke row and serializes its observable
// outputs: the alert log plus every flight-recorder dump.
func sloArtifacts(t *testing.T) []byte {
	t.Helper()
	row, g, eng := SLORun(sloSmokeConfig(), 0.75)
	if row.Alerts == 0 {
		t.Fatal("faulted smoke row fired no alerts")
	}
	var buf bytes.Buffer
	if err := eng.WriteLog(&buf); err != nil {
		t.Fatalf("write alert log: %v", err)
	}
	for _, d := range g.Flight.Dumps() {
		if err := flightrec.WriteDump(&buf, d); err != nil {
			t.Fatalf("write dump: %v", err)
		}
	}
	return buf.Bytes()
}

// TestSLOArtifactsDeterministic pins the observability plane's own
// determinism: two same-seed chaos runs produce byte-identical alert
// logs and black-box dumps (run under -race in CI).
func TestSLOArtifactsDeterministic(t *testing.T) {
	a := sloArtifacts(t)
	b := sloArtifacts(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed observability artifacts differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestSLOStudySmokeGate runs the full smoke sweep through the acceptance
// gate: fault-free row silent, faulted row detected within budget.
func TestSLOStudySmokeGate(t *testing.T) {
	res := SLOStudy(sloSmokeConfig())
	if bad := res.Check(); len(bad) > 0 {
		t.Fatalf("gate violations: %v", bad)
	}
	if len(res.Rows) != 2 || res.Rows[0].Alerts != 0 || res.Rows[1].Alerts == 0 {
		t.Fatalf("unexpected rows: %+v", res.Rows)
	}
	if res.Rows[1].DetectionLag <= 0 || res.Rows[1].DetectionLag > res.DetectBudget {
		t.Fatalf("detection lag out of range: %v", res.Rows[1].DetectionLag)
	}
}

// TestSLOCheckCatches pins that the gate actually rejects bad rows.
func TestSLOCheckCatches(t *testing.T) {
	res := SLOResult{DetectBudget: time.Minute, Rows: []SLORow{
		{FaultRate: 0, Faults: 0, Alerts: 1, SLODumps: 1, FirstRule: "x"},
		{FaultRate: 1, Faults: 2},
		{FaultRate: 1, Faults: 2, Alerts: 1, SLODumps: 1, Detected: true,
			DetectionLag: 2 * time.Minute},
		{FaultRate: 1, Faults: 2, Alerts: 2, SLODumps: 1, Detected: true,
			DetectionLag: time.Second},
	}}
	bad := res.Check()
	if len(bad) != 4 {
		t.Fatalf("want 4 violations (false positive, undetected, slow, dump mismatch), got %v", bad)
	}
}

// TestSLORulesScale pins that the rule thresholds derive from the
// workload configuration rather than hard-coding the stock numbers.
func TestSLORulesScale(t *testing.T) {
	cfg := ChaosConfig{SubmitBudget: 20 * time.Minute}
	cfg.fill()
	for _, r := range sloRules(cfg) {
		if r.Kind == slo.KindBurnRate && r.Threshold != 10*time.Minute {
			t.Fatalf("burn threshold does not track the submit budget: %v", r.Threshold)
		}
	}
}
