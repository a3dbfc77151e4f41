package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadScenario(t *testing.T, name string) Scenario {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	var sc Scenario
	if err := json.Unmarshal(raw, &sc); err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return sc
}

func TestDemoScenarioRuns(t *testing.T) {
	if err := run(demoScenario()); err != nil {
		t.Fatalf("demo scenario: %v", err)
	}
}

func TestFederationDemoRuns(t *testing.T) {
	if err := runFederationDemo(runOptions{}); err != nil {
		t.Fatalf("federation demo: %v", err)
	}
}

func TestFigure1ScenarioRuns(t *testing.T) {
	if err := run(loadScenario(t, "figure1.json")); err != nil {
		t.Fatalf("figure1 scenario: %v", err)
	}
}

func TestBatchQueueScenarioRuns(t *testing.T) {
	if err := run(loadScenario(t, "batch-queue.json")); err != nil {
		t.Fatalf("batch scenario: %v", err)
	}
}

func TestAtomicFailureScenarioFailsCleanly(t *testing.T) {
	err := run(loadScenario(t, "atomic-failure.json"))
	if err == nil {
		t.Fatal("atomic scenario with a dead machine succeeded")
	}
	if !strings.Contains(err.Error(), "co-allocation failed") {
		t.Fatalf("error = %v", err)
	}
}

func TestScenarioValidation(t *testing.T) {
	sc := demoScenario()
	sc.Faults = append(sc.Faults, FaultSpec{Kind: "meteor-strike", Target: "x"})
	if err := run(sc); err == nil || !strings.Contains(err.Error(), "unknown fault kind") {
		t.Fatalf("unknown fault kind accepted: %v", err)
	}
	sc = demoScenario()
	sc.Strategy = "hope"
	if err := run(sc); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("unknown strategy accepted: %v", err)
	}
	sc = demoScenario()
	sc.Request = "((("
	if err := run(sc); err == nil {
		t.Fatal("bad RSL accepted")
	}
	sc = demoScenario()
	sc.Pool = []string{"not-an-addr"}
	if err := run(sc); err == nil {
		t.Fatal("bad pool address accepted")
	}
}

// The scenario format spells a fault kind as failure.Kind names it: every
// kind the package comment lists schedules (on no machine, so a no-op).
func TestEveryDocumentedFaultKindParses(t *testing.T) {
	for _, kind := range []string{"host-crash", "host-hang", "host-restore", "machine-slow", "machine-down",
		"machine-up", "partition", "heal", "revoke-user", "reinstate-user", "machine-restart"} {
		sc := demoScenario()
		sc.Faults = []FaultSpec{{AtSeconds: 1, Kind: kind, Target: "nowhere", Target2: "nowhere"}}
		if err := run(sc); err != nil && strings.Contains(err.Error(), "unknown fault kind") {
			t.Errorf("%s: %v", kind, err)
		}
	}
}
