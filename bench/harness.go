package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// The measurement protocol (README.md has the numbers behind each choice):
// one round is one fresh child process at GOMAXPROCS=1; rounds of the
// requested workloads interleave round-robin; a seed stands for five
// input sets ("variants") that the rounds cycle through; every reported
// number is the mean over variants of the median over that variant's
// rounds.
const (
	variants  = 5
	minCycles = variants + 1 // every variant once and one again, so repeatability is always checked
	layerReps = 5
)

// variantSeed derives the seed of one of a run's input sets; distinct
// --seed values share none.
func variantSeed(seed int64, v int) int64 { return seed*variants + int64(v) }

// childOut is the one JSON line a child prints.
type childOut struct {
	Round  *round               `json:"round,omitempty"`
	Layers map[string]layerCost `json:"layers,omitempty"`
}

// spawn runs one child to completion and returns its line. The parent is
// idle while the child runs.
func spawn(kind string, seed int64, traced bool) (*childOut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", kind, "-seed", strconv.FormatInt(seed, 10),
		"-traced="+strconv.FormatBool(traced), "-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s seed %d: %w", kind, seed, err)
	}
	var out childOut
	if err := json.Unmarshal(bytes.TrimSpace(stdout), &out); err != nil {
		return nil, fmt.Errorf("child %s seed %d: bad output: %w", kind, seed, err)
	}
	if out.Round != nil {
		out.Round.PeakRSSKB = cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss
	}
	return &out, nil
}

// report is one workload's result.
type report struct {
	workload  string
	rounds    int
	samples   int // latency samples behind vt_p95_ms, per round
	attempted int // over all rounds
	failed    int
	metrics   map[string]float64
	problems  []string // failed correctness gates
}

// series holds one workload's rounds, by variant.
type series [variants][]*round

func (s *series) all() []*round {
	var out []*round
	for _, rs := range s {
		out = append(out, rs...)
	}
	return out
}

// value is the mean over variants of the median over a variant's rounds.
func (s *series) value(f func(*round) float64) float64 {
	var sum float64
	for _, rs := range s {
		vals := make([]float64, len(rs))
		for i, r := range rs {
			vals[i] = f(r)
		}
		sum += median(vals)
	}
	return sum / variants
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// virtualKey is everything about a round that must repeat exactly.
func virtualKey(r *round) string {
	return fmt.Sprintf("ops=%d failed=%d p50=%v p95=%v goodput=%v timers=%d msgs=%d",
		r.Ops, r.Failed, r.P50Ms, r.P95Ms, r.Goodput, r.Timers, r.Msgs)
}

// gates checks one workload's rounds against the correctness gates.
func gates(w *workload, rounds []*round) []string {
	var problems []string
	first := map[string]string{} // per input set
	attempted, failed := 0, 0
	for _, r := range rounds {
		id := fmt.Sprintf("seed %d traced %v", r.Seed, r.Traced)
		if k, seen := first[id]; !seen {
			first[id] = virtualKey(r)
		} else if k != virtualKey(r) {
			problems = append(problems, fmt.Sprintf("%s: rounds differ: %s vs %s", id, k, virtualKey(r)))
		}
		attempted += r.Ops
		failed += r.Failed
		if r.Undrained != 0 {
			problems = append(problems, fmt.Sprintf("%s: %d machines not drained at quiescence", id, r.Undrained))
		}
		if r.LateNs != 0 {
			problems = append(problems, fmt.Sprintf("%s: generator ran %d ns late", id, r.LateNs))
		}
		for _, p := range r.Problems {
			problems = append(problems, id+": "+p)
		}
	}
	if float64(failed) > w.ceiling*float64(attempted) {
		problems = append(problems, fmt.Sprintf("%d of %d ops failed, ceiling %.0f%%", failed, attempted, 100*w.ceiling))
	}
	return problems
}

// measure runs the untraced protocol for the named workloads and returns
// the end-to-end metrics of each.
func measure(names []string, seed int64, seconds float64) ([]report, error) {
	data := map[string]*series{}
	for _, name := range names {
		data[name] = &series{}
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(len(names)) * float64(time.Second)))
	for cycle := 0; cycle < minCycles || time.Now().Before(deadline); cycle++ {
		v := cycle % variants
		for _, name := range names {
			out, err := spawn(name, variantSeed(seed, v), false)
			if err != nil {
				return nil, err
			}
			data[name][v] = append(data[name][v], out.Round)
		}
	}
	var reports []report
	for _, name := range names {
		s := data[name]
		rep := summarize(findWorkload(name), s.all())
		rep.metrics = endToEndMetrics(s)
		if name == "broker_open_obs" {
			// Observing the simulation must not change what it simulates.
			ref := data["broker_open"]
			if ref == nil {
				out, err := spawn("broker_open", variantSeed(seed, 0), false)
				if err != nil {
					return nil, err
				}
				ref = &series{{out.Round}}
			}
			if got, want := virtualKey(s[0][0]), virtualKey(ref[0][0]); got != want {
				rep.problems = append(rep.problems, fmt.Sprintf("virtual results differ from broker_open's: %s vs %s", got, want))
			}
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// endToEndMetrics folds one workload's rounds into its eight numbers.
func endToEndMetrics(s *series) map[string]float64 {
	perOp := func(f func(*round) float64) float64 {
		return s.value(func(r *round) float64 { return f(r) / float64(r.Ops) })
	}
	return map[string]float64{
		"wall_us_per_op":     perOp(func(r *round) float64 { return float64(r.WallNs) / 1e3 }),
		"allocs_per_op":      perOp(func(r *round) float64 { return float64(r.Mallocs) }),
		"alloc_kb_per_op":    perOp(func(r *round) float64 { return float64(r.AllocBytes) / 1024 }),
		"peak_rss_mb":        s.value(func(r *round) float64 { return float64(r.PeakRSSKB) / 1024 }),
		"setup_s":            s.value(func(r *round) float64 { return float64(r.SetupNs) / 1e9 }),
		"vt_p50_ms":          s.value(func(r *round) float64 { return r.P50Ms }),
		"vt_p95_ms":          s.value(func(r *round) float64 { return r.P95Ms }),
		"vt_goodput_per_min": s.value(func(r *round) float64 { return r.Goodput }),
	}
}

func summarize(w *workload, rounds []*round) report {
	rep := report{workload: w.name, rounds: len(rounds), samples: rounds[0].Samples, problems: gates(w, rounds)}
	for _, r := range rounds {
		rep.attempted += r.Ops
		rep.failed += r.Failed
	}
	return rep
}

// measureLayers is the traced run: the isolated drivers five times over,
// then untraced and traced rounds of each workload in turn, all on the
// seed's first input set. Counts come from the traced rounds, which must
// agree with one another; the two walls give the traced run's own cost.
func measureLayers(names []string, seed int64, seconds float64) ([]report, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(len(names)) * float64(time.Second)))
	costs := map[string][]layerCost{}
	for i := 0; i < layerReps; i++ {
		out, err := spawn("layers", seed, true)
		if err != nil {
			return nil, err
		}
		for name, c := range out.Layers {
			costs[name] = append(costs[name], c)
		}
	}
	plain, traced := map[string][]*round{}, map[string][]*round{}
	for cycle := 0; cycle < 2 || time.Now().Before(deadline); cycle++ {
		for _, name := range names {
			for _, on := range []bool{false, true} {
				out, err := spawn(name, variantSeed(seed, 0), on)
				if err != nil {
					return nil, err
				}
				if on {
					traced[name] = append(traced[name], out.Round)
				} else {
					plain[name] = append(plain[name], out.Round)
				}
			}
		}
	}
	var reports []report
	for _, name := range names {
		rep := summarize(findWorkload(name), append(plain[name], traced[name]...))
		m, problems := perLayerMetrics(plain[name], traced[name], costs)
		rep.metrics, rep.problems = m, append(rep.problems, problems...)
		reports = append(reports, rep)
	}
	return reports, nil
}

// perLayerMetrics assembles the traced run's numbers for one workload:
// family A from the isolated drivers' repeats, B and C from the first
// traced round (the gates have checked that the others agree), D from
// the two sets of walls.
func perLayerMetrics(plain, traced []*round, costs map[string][]layerCost) (map[string]float64, []string) {
	m, problems := layerMetrics(traced[0])
	for _, d := range isolated {
		cs := costs[d.name]
		ns, allocs := make([]float64, len(cs)), make([]float64, len(cs))
		for i, c := range cs {
			ns[i], allocs[i] = c.NsPerOp, c.AllocsPerOp
		}
		m[d.name+".ns_per_op"], m[d.name+".allocs_per_op"] = median(ns), median(allocs)
	}
	wall := func(rs []*round) float64 {
		vals := make([]float64, len(rs))
		for i, r := range rs {
			vals[i] = float64(r.WallNs)
		}
		return median(vals)
	}
	m["bench.trace_overhead_ratio"] = wall(traced) / wall(plain)
	return m, problems
}
