package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s: emitted names\n  %s\nBENCHMARK.json names\n  %s", what, strings.Join(got, " "), strings.Join(want, " "))
	}
}

// TestContract runs one tiny round of every workload and one pass of the
// isolated drivers in this process, and holds what they emit against
// BENCHMARK.json: same workload, end-to-end and per-layer names, legal
// names, counts within the contract's limits, every gate passing, and
// every per-layer metric naming what it should move and where.
func TestContract(t *testing.T) {
	c := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(c.Workloads) > 8 || len(c.EndToEnd) > 16 || len(c.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8/16/128",
			len(c.Workloads), len(c.EndToEnd), len(c.PerLayer))
	}
	var wantWorkloads, wantEndToEnd, wantPerLayer []string
	for _, w := range c.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, m := range c.EndToEnd {
		wantEndToEnd = append(wantEndToEnd, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range c.PerLayer {
		wantPerLayer = append(wantPerLayer, m.Name)
	}
	for _, n := range append(append(append([]string{}, wantWorkloads...), wantEndToEnd...), wantPerLayer...) {
		if !name.MatchString(n) {
			t.Errorf("illegal name %q", n)
		}
	}

	costs := map[string][]layerCost{}
	for n, cost := range runLayers(newSpanLog(), 0.01) {
		costs[n] = []layerCost{cost}
	}
	scale := map[string]float64{"duroc_wide": 0.04, "broker_open": 0.03, "broker_open_obs": 0.03, "fed_chaos": 0.05, "kernel_scale": 0.01}
	var gotWorkloads []string
	for i := range workloads {
		w := &workloads[i]
		gotWorkloads = append(gotWorkloads, w.name)
		tiny := func(traced bool) *round {
			r := &round{Workload: w.name, Seed: 1, Traced: traced || w.observed, spawned: time.Now()}
			if traced {
				r.spans = newSpanLog()
			}
			w.run(r, 1, scale[w.name])
			return r
		}
		plain, traced := tiny(false), tiny(true)
		if problems := gates(w, []*round{plain, traced}); len(problems) > 0 {
			t.Errorf("%s: %s", w.name, strings.Join(problems, "; "))
		}
		if plain.Ops == 0 || plain.P50Ms <= 0 || plain.Goodput <= 0 {
			t.Errorf("%s: empty round: %+v", w.name, plain)
		}
		sameNames(t, w.name+" end-to-end", keys(endToEndMetrics(&series{{plain}, {plain}, {plain}})), wantEndToEnd)
		m, problems := perLayerMetrics([]*round{plain}, []*round{traced}, costs)
		if len(problems) > 0 {
			t.Errorf("%s: %s", w.name, strings.Join(problems, "; "))
		}
		sameNames(t, w.name+" per-layer", keys(m), wantPerLayer)
		if len(traced.spans.spans) == 0 {
			t.Errorf("%s: traced round recorded no spans", w.name)
		}
	}
	sameNames(t, "workloads", gotWorkloads, wantWorkloads)
	sameNames(t, "end-to-end table", sortedNames(endToEnd), wantEndToEnd)
	sameNames(t, "per-layer table", sortedNames(perLayer), wantPerLayer)

	// The interaction table: each per-layer metric predicts which
	// end-to-end metrics it moves, on which workloads.
	for _, m := range perLayer {
		if m.moves == "" || m.on == "" {
			t.Errorf("%s: no prediction", m.name)
		}
		for _, e := range strings.Split(m.moves, ",") {
			if !slices.Contains(wantEndToEnd, e) {
				t.Errorf("%s: moves unknown end-to-end metric %q", m.name, e)
			}
		}
		for _, w := range strings.Split(m.on, ",") {
			if findWorkload(w) == nil {
				t.Errorf("%s: on unknown workload %q", m.name, w)
			}
		}
	}
}

func sortedNames(list []metric) []string {
	out := make([]string, len(list))
	for i, m := range list {
		out[i] = m.name
	}
	return out
}
