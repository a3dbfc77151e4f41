package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"cogrid/internal/workload"
)

func loadScenario(t *testing.T, name string) Scenario {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	sc, err := parseScenario(raw)
	if err != nil {
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

// TestAtomicFailureScenarioFailsCleanly: the run fails with the
// co-allocation's error alone. The audit that follows is clean: the abort's
// cancels reached every machine before the run ended, so none still runs a
// job.
func TestAtomicFailureScenarioFailsCleanly(t *testing.T) {
	err := run(loadScenario(t, "atomic-failure.json"))
	if err == nil {
		t.Fatal("atomic scenario with a dead machine succeeded")
	}
	if !strings.HasPrefix(err.Error(), "co-allocation failed") || strings.Contains(err.Error(), "audit:") {
		t.Fatalf("error = %v, want the co-allocation's alone", err)
	}
}

func TestScenarioValidation(t *testing.T) {
	sc := demoScenario()
	sc.Faults = append(sc.Faults, workload.Fault{Kind: "meteor-strike", Target: "x"})
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

// TestBadFaultListIsAnError: a fault list workload.CheckFaults refuses
// stops the scenario before it runs. Scheduled, a restart of a live machine
// or a second crash inside the first panics, a crash of no machine does
// nothing, and a negative factor is clamped to 1 by the LRM but to 10 by
// the testbed. A file in the old spelling does not parse.
func TestBadFaultListIsAnError(t *testing.T) {
	for _, c := range []struct {
		name   string
		faults []workload.Fault
	}{
		{"a restart of a live machine, in the old spelling", []workload.Fault{{Kind: "machine-restart", Target: "m1", At: time.Second}}},
		{"a crash of no machine", []workload.Fault{{Kind: "crash", Target: "nosuch", At: time.Second}}},
		{"a negative time", []workload.Fault{{Kind: "crash", Target: "m1", At: -5 * time.Second}}},
		{"a negative slowdown", []workload.Fault{{Kind: "slow", Target: "m1", Factor: -3}}},
		{"overlapping crashes", []workload.Fault{{Kind: "crash", Target: "m1", At: time.Second, Dur: time.Minute},
			{Kind: "crash", Target: "m1", At: 2 * time.Second, Dur: time.Second}}},
		{"one partition both ways", []workload.Fault{{Kind: "partition", Target: "m1", Target2: "m2", At: time.Second, Dur: time.Minute},
			{Kind: "partition", Target: "m2", Target2: "m1", At: 2 * time.Second, Dur: time.Minute}}},
	} {
		sc := loadScenario(t, "atomic-failure.json")
		sc.Faults = c.faults
		if err := run(sc); err == nil || strings.Contains(err.Error(), "co-allocation failed") {
			t.Errorf("%s: run() = %v, want the fault list refused", c.name, err)
		}
	}
	// "partition" kept its name; its old "at_seconds" must not parse as 0.
	if _, err := parseScenario([]byte(`{"faults":[{"at_seconds":10,"kind":"partition","target":"m2"}]}`)); err == nil {
		t.Error("a fault in the old spelling parsed")
	}
}

// TestEveryDocumentedFaultKindParses holds the package comment's list of
// fault kinds to the validator's, workload.FaultKinds, in its order, and
// runs each kind it lists: none is an unknown kind.
func TestEveryDocumentedFaultKindParses(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(f.Doc.Text()), " ")
	m := regexp.MustCompile(`Fault kinds: ([^.]*)\.`).FindStringSubmatch(doc)
	if m == nil {
		t.Fatal("the package comment lists no fault kinds")
	}
	kinds := strings.Split(regexp.MustCompile(` \([^)]*\)`).ReplaceAllString(m[1], ""), ", ")
	if !slices.Equal(kinds, workload.FaultKinds) {
		t.Errorf("the package comment lists %q, the validator %q", kinds, workload.FaultKinds)
	}
	for _, kind := range kinds {
		sc := demoScenario()
		sc.Faults = []workload.Fault{{Kind: kind, Target: "anl-sp2", At: time.Second}}
		if err := run(sc); err != nil && strings.Contains(err.Error(), "unknown fault kind") {
			t.Errorf("%s: %v", kind, err)
		}
	}
}
