package perf

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// SchemaVersion identifies the BENCH_grid.json layout. Bump it on any
// incompatible change; Compare refuses to diff mismatched schemas.
const SchemaVersion = "cogrid-bench/v1"

// errRejected reports a broker admission rejection inside a benchmark.
var errRejected = errors.New("perf: broker rejected benchmark submission")

// Series is one measured line of the snapshot. Kind "bench" series carry
// wall-clock testing.B results; kind "scenario" series carry virtual-time
// quantities from a deterministic simulation run and are byte-stable for
// a fixed seed.
type Series struct {
	Name        string             `json:"name"`
	Kind        string             `json:"kind"` // "bench" | "scenario"
	N           int                `json:"n"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	OpsPerSec   float64            `json:"ops_per_sec,omitempty"`
	Values      map[string]float64 `json:"values,omitempty"`
}

// Snapshot is the full BENCH_grid.json document.
type Snapshot struct {
	Schema    string   `json:"schema"`
	CreatedAt string   `json:"created_at,omitempty"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	BenchTime string   `json:"bench_time,omitempty"`
	Seed      int64    `json:"seed"`
	Series    []Series `json:"series"`
}

// Canonical returns the snapshot with its timestamp cleared — the form
// determinism tests byte-compare.
func (s Snapshot) Canonical() Snapshot {
	s.CreatedAt = ""
	return s
}

// Find returns the series with the given name, or nil.
func (s *Snapshot) Find(name string) *Series {
	for i := range s.Series {
		if s.Series[i].Name == name {
			return &s.Series[i]
		}
	}
	return nil
}

// WriteJSON writes the snapshot as indented JSON. Output is deterministic
// for identical snapshot values (encoding/json sorts map keys).
func WriteJSON(w io.Writer, s Snapshot) error {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(raw, '\n'))
	return err
}

// ReadSnapshot loads a snapshot file and validates its schema.
func ReadSnapshot(path string) (Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return Snapshot{}, fmt.Errorf("perf: %s: %w", path, err)
	}
	if s.Schema != SchemaVersion {
		return Snapshot{}, fmt.Errorf("perf: %s: schema %q, want %q", path, s.Schema, SchemaVersion)
	}
	return s, nil
}

// RunConfig parameterizes a measurement run.
type RunConfig struct {
	// BenchRE filters benchmark names; nil runs the full suite.
	BenchRE *regexp.Regexp
	// BenchTime is the testing -benchtime value ("1s", "20ms", "100x");
	// empty keeps the testing default of 1s.
	BenchTime string
	// Seed drives the deterministic scenario run.
	Seed int64
	// SkipBench / SkipScenario drop one half of the suite.
	SkipBench    bool
	SkipScenario bool
}

// Run executes the configured benchmarks and the scenario, returning the
// assembled snapshot (CreatedAt is left empty; stamp it at the edge).
func Run(cfg RunConfig) (Snapshot, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	snap := Snapshot{
		Schema:    SchemaVersion,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		BenchTime: cfg.BenchTime,
		Seed:      cfg.Seed,
	}
	if !cfg.SkipBench {
		// testing.Init is idempotent; it registers the test.* flags that
		// testing.Benchmark consults.
		testing.Init()
		if cfg.BenchTime != "" {
			if err := flag.Set("test.benchtime", cfg.BenchTime); err != nil {
				return Snapshot{}, err
			}
		}
		for _, bn := range Suite() {
			if cfg.BenchRE != nil && !cfg.BenchRE.MatchString(bn.Name) {
				continue
			}
			r := testing.Benchmark(bn.F)
			if r.N == 0 {
				return Snapshot{}, fmt.Errorf("perf: benchmark %s failed", bn.Name)
			}
			ser := Series{
				Name:        bn.Name,
				Kind:        "bench",
				N:           r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: float64(r.AllocsPerOp()),
				BytesPerOp:  float64(r.AllocedBytesPerOp()),
				OpsPerSec:   opsPerSec(r),
			}
			if bn.Derive != nil {
				ser.Values = bn.Derive(r)
			}
			snap.Series = append(snap.Series, ser)
		}
	}
	if !cfg.SkipScenario {
		scen, _, _ := RunScenario(cfg.Seed)
		snap.Series = append(snap.Series, scen...)
		fed, _, _ := RunFedScenario(cfg.Seed)
		snap.Series = append(snap.Series, fed...)
		snap.Series = append(snap.Series, RunWireScenario(cfg.Seed)...)
		sloScen, _ := RunSLOScenario(cfg.Seed)
		snap.Series = append(snap.Series, sloScen...)
		snap.Series = append(snap.Series, RunScaleScenario(cfg.Seed)...)
	}
	return snap, nil
}

// Delta is one series' base-to-current comparison.
type Delta struct {
	Name        string
	BaseNs      float64
	CurNs       float64
	Change      float64 // (cur-base)/base
	BaseAllocs  float64
	CurAllocs   float64
	Regressed   bool
	AllocsGrown bool
}

// CompareResult is the regression analysis of two snapshots.
type CompareResult struct {
	Deltas  []Delta
	Missing []string // bench series in base absent from current
	Added   []string // bench series in current absent from base
}

// Regressions lists the names of series whose ns/op regressed beyond the
// compare threshold.
func (r CompareResult) Regressions() []string {
	return r.names(func(d Delta) bool { return d.Regressed })
}

// allocRegressions lists the names of series whose allocs/op grew beyond
// allocTolerance (Delta.AllocsGrown). Unlike ns/op this is a count, not a
// timing, so it gates on any machine.
func (r CompareResult) allocRegressions() []string {
	return r.names(func(d Delta) bool { return d.AllocsGrown })
}

func (r CompareResult) names(pick func(Delta) bool) []string {
	var out []string
	for _, d := range r.Deltas {
		if pick(d) {
			out = append(out, d.Name)
		}
	}
	return out
}

// allocTolerance is how far allocs/op may exceed the baseline before the
// series counts as grown: a smoke-length run amortises each bench's set-up
// over far fewer iterations than the 1 s baseline did, which alone is worth
// up to 7 % on the end-to-end rows (broker_submit, lrm_submit). The half
// alloc on top keeps a 0-alloc series failing on its first allocation.
const allocTolerance = 0.10

// Compare diffs the wall-clock ("bench") series of two snapshots. A series
// regresses when its ns/op grows by more than threshold (0.20 = 20%), and
// its allocations have grown when allocs/op exceeds the baseline by more
// than allocTolerance.
// Scenario series are deterministic virtual-time quantities and are not
// gated here. Schemas must match.
func Compare(base, cur Snapshot, threshold float64) (CompareResult, error) {
	if base.Schema != cur.Schema {
		return CompareResult{}, fmt.Errorf("perf: schema mismatch: base %q vs current %q",
			base.Schema, cur.Schema)
	}
	if threshold <= 0 {
		threshold = 0.20
	}
	baseBench := map[string]Series{}
	for _, s := range base.Series {
		if s.Kind == "bench" {
			baseBench[s.Name] = s
		}
	}
	var res CompareResult
	seen := map[string]bool{}
	for _, s := range cur.Series {
		if s.Kind != "bench" {
			continue
		}
		seen[s.Name] = true
		b, ok := baseBench[s.Name]
		if !ok {
			res.Added = append(res.Added, s.Name)
			continue
		}
		d := Delta{
			Name: s.Name, BaseNs: b.NsPerOp, CurNs: s.NsPerOp,
			BaseAllocs: b.AllocsPerOp, CurAllocs: s.AllocsPerOp,
		}
		if b.NsPerOp > 0 {
			d.Change = (s.NsPerOp - b.NsPerOp) / b.NsPerOp
			d.Regressed = d.Change > threshold
		}
		d.AllocsGrown = s.AllocsPerOp > b.AllocsPerOp*(1+allocTolerance)+0.5
		res.Deltas = append(res.Deltas, d)
	}
	for name := range baseBench {
		if !seen[name] {
			res.Missing = append(res.Missing, name)
		}
	}
	sort.Slice(res.Deltas, func(i, j int) bool { return res.Deltas[i].Name < res.Deltas[j].Name })
	sort.Strings(res.Missing)
	sort.Strings(res.Added)
	return res, nil
}

// Report renders a benchstat-style comparison table.
func (r CompareResult) Report(threshold float64) string {
	if threshold <= 0 {
		threshold = 0.20
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %14s %14s %9s %14s\n", "benchmark", "base ns/op", "cur ns/op", "delta", "allocs/op")
	for _, d := range r.Deltas {
		mark := ""
		if d.Regressed {
			mark = "  << REGRESSION"
		}
		if d.AllocsGrown {
			mark += "  << ALLOCS GREW"
		}
		fmt.Fprintf(&sb, "%-22s %14.1f %14.1f %+8.1f%% %7.0f→%-6.0f%s\n",
			d.Name, d.BaseNs, d.CurNs, d.Change*100, d.BaseAllocs, d.CurAllocs, mark)
	}
	for _, name := range r.Missing {
		fmt.Fprintf(&sb, "%-22s missing from current run\n", name)
	}
	for _, name := range r.Added {
		fmt.Fprintf(&sb, "%-22s new (no baseline)\n", name)
	}
	if reg := r.Regressions(); len(reg) > 0 {
		fmt.Fprintf(&sb, "FAIL: %d series regressed beyond %.0f%%: %s\n",
			len(reg), threshold*100, strings.Join(reg, ", "))
	} else {
		fmt.Fprintf(&sb, "ok: no ns/op regression beyond %.0f%%\n", threshold*100)
	}
	if grown := r.allocRegressions(); len(grown) > 0 {
		fmt.Fprintf(&sb, "FAIL: allocs/op grew beyond %.0f%% on %d series: %s\n",
			allocTolerance*100, len(grown), strings.Join(grown, ", "))
	}
	return sb.String()
}
