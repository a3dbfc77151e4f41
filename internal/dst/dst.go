// Package dst is a deterministic simulation-testing harness for the
// whole co-allocation stack, in the FoundationDB style: a single seed
// generates a complete end-to-end scenario — grid topology, machine mix,
// co-allocation workload, competing background load, and a fault
// schedule of hangs, overloads, partitions, outages, crashes, and
// credential revocations — which runs on the virtual-time kernel, so the
// execution is reproducible bit-for-bit. After every run the testbed's
// audit (workload.Testbed.Audit, which every study and demo ends with too)
// checks the final state: 2PC safety (unanimous votes before the commit
// decision, no execution after an abort), the required-failure abort rule,
// orphan reaping, leaked jobs, processor conservation, causal-trace
// well-formedness and the SLO plane; a deadlock is DST's own "kernel"
// verdict. A violation is
// shrunk — greedily dropping faults, jobs, subjobs, and background
// load — to a minimal scenario whose JSON form replays the bug as a
// one-liner and joins the regression corpus in testdata/.
package dst

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// SeedReport is the outcome of one seed: its scenario's run, and — on
// violation — the shrunk reproduction.
type SeedReport struct {
	Seed   int64     `json:"seed"`
	Result RunResult `json:"result"`
	// Shrunk is set when the run violated an invariant and shrinking was
	// requested.
	Shrunk *ShrinkResult `json:"shrunk,omitempty"`
}

// RunSeed generates the seed's scenario and runs it; on violation, if
// shrinkBudget is non-zero, it minimizes the reproduction.
func RunSeed(seed int64, p Profile, opts RunOptions, shrinkBudget int) SeedReport {
	sc := Generate(seed, p)
	res, err := Run(sc, opts)
	if err != nil {
		// Generate only emits valid scenarios; a runner error here is a
		// harness bug and must not pass silently.
		panic(fmt.Sprintf("dst: seed %d: %v", seed, err))
	}
	rep := SeedReport{Seed: seed, Result: res}
	if len(res.Violations) > 0 && shrinkBudget != 0 {
		sr := Shrink(sc, opts, shrinkBudget)
		rep.Shrunk = &sr
	}
	return rep
}

// Text renders the report as the human-readable form the CLI prints.
func (r SeedReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %-6d %-7s machines=%d jobs=%d committed=%d aborted=%d faults=%d orphans=%d end=%v",
		r.Seed, r.Result.Scenario.Driver, len(r.Result.Scenario.Machines), r.Result.Jobs,
		r.Result.Committed, r.Result.Aborted, r.Result.Faults, r.Result.Orphans, r.Result.End)
	if r.Result.Scenario.Driver == DriverFed {
		fmt.Fprintf(&b, " replicas=%d elections=%d handoffs=%d forwards=%d",
			r.Result.Scenario.Replicas, r.Result.Elections, r.Result.Handoffs, r.Result.Forwards)
	}
	if r.Result.OK() {
		b.WriteString("  ok\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  VIOLATED\n")
	for _, v := range r.Result.Violations {
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	if r.Shrunk != nil {
		fmt.Fprintf(&b, "  shrunk after %d runs to %d machines / %d jobs / %d faults; surviving violations:\n",
			r.Shrunk.Runs, len(r.Shrunk.Scenario.Machines), len(r.Shrunk.Scenario.Jobs), len(r.Shrunk.Scenario.Faults))
		for _, v := range r.Shrunk.Violations {
			fmt.Fprintf(&b, "    %s\n", v)
		}
		fmt.Fprintf(&b, "  replay: %s\n", r.Shrunk.replay())
		fmt.Fprintf(&b, "  replay (unshrunk): dstgrid -seed %d\n", r.Seed)
	}
	return b.String()
}

// JSON renders the report as one JSON line.
func (r SeedReport) JSON() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain struct of plain fields: cannot fail
	}
	return string(b)
}

// Summary aggregates a batch of seed reports.
type Summary struct {
	Seeds      int     `json:"seeds"`
	Violated   []int64 `json:"violated,omitempty"`
	Jobs       int     `json:"jobs"`
	Committed  int     `json:"committed"`
	Aborted    int     `json:"aborted"`
	Faults     int     `json:"faults"`
	Violations int     `json:"violations"`
}

// Summarize folds seed reports into totals.
func Summarize(reports []SeedReport) Summary {
	s := Summary{Seeds: len(reports)}
	for _, r := range reports {
		s.Jobs += r.Result.Jobs
		s.Committed += r.Result.Committed
		s.Aborted += r.Result.Aborted
		s.Faults += r.Result.Faults
		s.Violations += len(r.Result.Violations)
		if !r.Result.OK() {
			s.Violated = append(s.Violated, r.Seed)
		}
	}
	sort.Slice(s.Violated, func(i, k int) bool { return s.Violated[i] < s.Violated[k] })
	return s
}

func (s Summary) String() string {
	status := "all invariants held"
	if len(s.Violated) > 0 {
		status = fmt.Sprintf("VIOLATIONS on seeds %v", s.Violated)
	}
	return fmt.Sprintf("dst: %d seeds, %d jobs (%d committed, %d aborted), %d faults: %s",
		s.Seeds, s.Jobs, s.Committed, s.Aborted, s.Faults, status)
}
