package dst

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// FuzzCoAllocate is the native-fuzzing entry point to the simulation
// harness: every fuzz input is a scenario seed, every execution audits
// the full invariant library. Run with
//
//	go test ./internal/dst -fuzz FuzzCoAllocate
//
// to hunt continuously; without -fuzz the seed corpus below runs as
// ordinary subtests.
func FuzzCoAllocate(f *testing.F) {
	for _, seed := range []int64{1, 2, 17, 18, 46, 48, 1<<40 + 7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		res, err := Run(Generate(seed, SmokeProfile), RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range res.Violations {
			t.Errorf("seed %d: violation: %s (replay: dstgrid -seed %d -smoke)", seed, v, seed)
		}
	})
}

// FuzzScenario holds the replay format to its contract: ParseScenario never
// panics, an accepted scenario survives JSON() and a second parse with its
// replay form unchanged, and one within SmokeProfile's bounds runs without
// panicking. Seeded from the regression corpus and two scenarios Validate
// refuses (two overlapping crashes of one machine; one partition cut both
// ways at once). Run with
//
//	go test ./internal/dst -fuzz FuzzScenario
func FuzzScenario(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no corpus scenarios: %v", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"seed":48,"driver":"duroc","machines":[{"name":"m00","procs":8,"batch":true}],` +
		`"work_time":36370934937,"jobs":[{"at":39972341825,"subjobs":[{"machine":"m00","count":2,"type":"required"}],` +
		`"commit_timeout":142783008359,"startup_timeout":78376071083,"max_time":240000000000}],` +
		`"faults":[{"kind":"crash","target":"m00","at":87194465143,"dur":49688579736},` +
		`{"kind":"crash","target":"m00","at":97194465143,"dur":10000000000}]}`))
	f.Add([]byte(`{"seed":48,"driver":"duroc","machines":[{"name":"m00","procs":8,"batch":true},{"name":"m01","procs":8}],` +
		`"work_time":36370934937,"jobs":[{"at":39972341825,"subjobs":[{"machine":"m00","count":2,"type":"required"}],` +
		`"commit_timeout":142783008359,"startup_timeout":78376071083,"max_time":240000000000}],` +
		`"faults":[{"kind":"partition","target":"m00","target2":"m01","at":37194465143,"dur":49688579736},` +
		`{"kind":"partition","target":"m01","target2":"m00","at":47194465143,"dur":10000000000}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			return
		}
		// Equal in the replay form: an empty list parses as empty but is
		// written as absent, so it comes back nil — and stays nil.
		back, err := ParseScenario([]byte(sc.JSON()))
		if err != nil {
			t.Fatalf("JSON() of an accepted scenario does not parse: %v\n%s", err, sc.JSON())
		}
		again, err := ParseScenario([]byte(back.JSON()))
		if err != nil || back.JSON() != sc.JSON() || !reflect.DeepEqual(back, again) {
			t.Fatalf("round trip changed the scenario (%v):\n%s\n%s", err, sc.JSON(), back.JSON())
		}
		if smokeSized(sc) {
			if _, err := Run(sc, RunOptions{}); err != nil {
				t.Fatalf("accepted scenario does not run: %v\n%s", err, sc.JSON())
			}
		}
	})
}

// smokeSized reports whether a scenario is no larger than SmokeProfile
// generates: its counts within the profile's, and every time and duration
// between zero and ten virtual minutes.
func smokeSized(sc Scenario) bool {
	p := SmokeProfile
	ok := len(sc.Machines) <= p.MaxMachines && len(sc.Jobs) <= p.MaxJobs &&
		sc.Replicas <= 4 && len(sc.Background) <= 8*len(sc.Machines) &&
		len(sc.Faults) <= len(sc.Machines)+1+sc.Replicas
	in := func(ds ...time.Duration) {
		for _, d := range ds {
			ok = ok && d >= 0 && d <= 10*time.Minute
		}
	}
	for _, m := range sc.Machines {
		ok = ok && m.Procs <= p.MaxProcs
	}
	in(sc.WorkTime)
	for _, j := range sc.Jobs {
		ok = ok && len(j.Subjobs) <= p.MaxSubjobs && j.Sites <= 3 && j.ProcsPerSite <= p.MaxCount && j.Spares <= 1
		for _, sj := range j.Subjobs {
			ok = ok && sj.Count <= p.MaxCount
		}
		in(j.At, j.CommitTimeout, j.StartupTimeout, j.MaxTime)
	}
	for _, b := range sc.Background {
		in(b.At, b.Runtime, b.Limit)
	}
	for _, f := range sc.Faults {
		in(f.At, f.Dur)
	}
	return ok
}
