package dst

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cogrid/internal/core"
)

// TestCorpusClean replays every regression scenario in testdata/. Each
// file is a shrunk reproduction of a bug the harness once caught (or a
// representative generated scenario); a violation here means a fixed bug
// has come back.
func TestCorpusClean(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus scenarios: %v", err)
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := ParseScenario(data)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(sc, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
		})
	}
}

// TestGeneratedSeedsClean sweeps a band of generated scenarios; the
// check.sh smoke gate runs a wider band through cmd/dstgrid.
func TestGeneratedSeedsClean(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		res, err := Run(Generate(seed, SmokeProfile), RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d: violation: %s (replay: dstgrid -seed %d -smoke)", seed, v, seed)
		}
	}
}

// TestDeterminism locks the harness's reproducibility contract: the same
// seed yields a byte-identical report, for both drivers.
func TestDeterminism(t *testing.T) {
	for _, seed := range []int64{7, 2} { // seed 7 draws duroc, seed 2 broker
		a := RunSeed(seed, SmokeProfile, RunOptions{}, 0)
		b := RunSeed(seed, SmokeProfile, RunOptions{}, 0)
		if a.JSON() != b.JSON() {
			t.Errorf("seed %d: reports differ:\n%s\n%s", seed, a.JSON(), b.JSON())
		}
	}
}

// fedProfile forces every generated scenario through the federated
// broker stack.
func fedProfile() Profile {
	p := SmokeProfile
	p.BrokerProb, p.FedProb = 1, 1
	return p
}

// TestFedGeneratedSeedsClean sweeps forced-federation scenarios — replica
// groups with crash/restart schedules on top of the usual machine faults.
// The check.sh fed-smoke gate runs a wider band through cmd/dstgrid.
func TestFedGeneratedSeedsClean(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		res, err := Run(Generate(seed, fedProfile()), RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d: violation: %s", seed, v)
		}
	}
}

// TestFedDeterminism: a federated run — replica crashes, elections,
// hand-offs and all — yields byte-identical audit reports per seed. Seed
// 1 draws broker-crash faults; seed 4 draws none.
func TestFedDeterminism(t *testing.T) {
	crashes := 0
	for _, seed := range []int64{1, 4} {
		sc := Generate(seed, fedProfile())
		if sc.Driver != DriverFed {
			t.Fatalf("seed %d: expected fed driver, got %s", seed, sc.Driver)
		}
		for _, f := range sc.Faults {
			if f.Kind == "broker-crash" {
				crashes++
			}
		}
		a := RunSeed(seed, fedProfile(), RunOptions{}, 0)
		b := RunSeed(seed, fedProfile(), RunOptions{}, 0)
		if a.JSON() != b.JSON() {
			t.Errorf("seed %d: reports differ:\n%s\n%s", seed, a.JSON(), b.JSON())
		}
	}
	if crashes == 0 {
		t.Error("neither seed drew a broker-crash fault; pick seeds that do")
	}
}

// TestFedCorpusKillsShardOwner: the corpus scenario that crashes the
// shard owner mid-flight (and later the leader) must actually exercise
// the machinery it regresses — an election and journal hand-offs — not
// just pass vacuously.
func TestFedCorpusKillsShardOwner(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fed-kill-shard-owner-mid-2pc.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Elections == 0 {
		t.Error("no leader election despite the leader crashing")
	}
	if res.Handoffs == 0 {
		t.Error("no journal hand-off despite a replica dying with work in flight")
	}
}

// TestScenarioRoundTrip locks the replay format: a generated scenario
// survives JSON encode/decode unchanged.
func TestScenarioRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		sc := Generate(seed, SmokeProfile)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid scenario: %v", seed, err)
		}
		back, err := ParseScenario([]byte(sc.JSON()))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Errorf("seed %d: round trip changed the scenario", seed)
		}
	}
}

// TestInjectedDoubleCommitCaughtAndShrunk is the harness's self-test: a
// controller with the DoubleCommit bug must be convicted by the
// commit-votes invariant, and the shrinker must reduce the reproduction
// to a replayable minimal scenario that still convicts.
func TestInjectedDoubleCommitCaughtAndShrunk(t *testing.T) {
	opts := RunOptions{Bugs: core.Bugs{DoubleCommit: true}}
	sc := Generate(1, SmokeProfile)
	res, err := Run(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if v.Invariant == "commit-votes" {
			found = true
		}
	}
	if !found {
		t.Fatalf("double-commit bug not caught; violations: %v", res.Violations)
	}

	sr := Shrink(sc, opts, DefaultShrinkBudget)
	if len(sr.Violations) == 0 {
		t.Fatal("shrinker lost the violation")
	}
	if len(sr.Scenario.Jobs) > len(sc.Jobs) || len(sr.Scenario.Faults) > len(sc.Faults) {
		t.Fatalf("shrinker grew the scenario: %s", sr.Scenario.JSON())
	}
	if !strings.HasPrefix(sr.Replay(), "dstgrid -scenario '{") {
		t.Fatalf("bad replay line: %s", sr.Replay())
	}

	// The replay line's scenario must reproduce on its own: parse it back
	// out of the one-liner and re-run.
	js := strings.TrimSuffix(strings.TrimPrefix(sr.Replay(), "dstgrid -scenario '"), "'")
	minimal, err := ParseScenario([]byte(js))
	if err != nil {
		t.Fatalf("replay line does not parse: %v", err)
	}
	again, err := Run(minimal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Violations) == 0 {
		t.Fatal("minimal reproduction does not reproduce")
	}

	// And the same minimal scenario on the unbroken controller is clean:
	// the conviction is the bug's, not the scenario's.
	clean, err := Run(minimal, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range clean.Violations {
		t.Errorf("minimal scenario violates without the bug: %s", v)
	}
}

// TestShrinkCleanScenario: shrinking a healthy scenario is a single-run
// no-op.
func TestShrinkCleanScenario(t *testing.T) {
	sr := Shrink(Generate(3, SmokeProfile), RunOptions{}, 50)
	if len(sr.Violations) != 0 || sr.Runs != 1 {
		t.Fatalf("expected clean single-run shrink, got %d runs, violations %v", sr.Runs, sr.Violations)
	}
}

// TestVerdictsPinned is the harness's cross-commit contract in-tree: the
// -json lines of the first smoke and federated seeds, and the trace exports
// behind them, hashed. Whatever assembles the grid and drives the jobs, a
// scenario's run does not move.
func TestVerdictsPinned(t *testing.T) {
	lines, traces := sha256.New(), sha256.New()
	run := func(seed int64, p Profile) {
		var a Artifacts
		rep := RunSeed(seed, p, RunOptions{Artifacts: &a}, 0)
		fmt.Fprintln(lines, rep.JSON())
		traces.Write(a.TraceJSONL)
	}
	for seed := int64(1); seed <= 20; seed++ {
		run(seed, SmokeProfile)
	}
	for seed := int64(1); seed <= 8; seed++ {
		run(seed, fedProfile())
	}
	if got, want := fmt.Sprintf("%x", lines.Sum(nil))[:16], "a57ab3cefcaf1ba4"; got != want {
		t.Errorf("verdict lines moved: hash %s, want %s", got, want)
	}
	if got, want := fmt.Sprintf("%x", traces.Sum(nil))[:16], "a03ce1ee1e50f29d"; got != want {
		t.Errorf("traces moved: hash %s, want %s", got, want)
	}
}
