// Gridtop is a text dashboard over the grid's observability plane. It
// replays the deterministic chaos workload with the SLO engine armed and
// renders the run frame by frame in virtual time: gauge levels, alert
// transitions, the set of rules alerting at each frame, and the
// flight-recorder black boxes each fire froze. Because the simulation is
// deterministic, the "live" view and a replay of the same seed are the
// same bytes — what you see after an incident is exactly what a live
// screen would have shown.
//
// Usage:
//
//	gridtop [-seed N] [-rate R] [-step D] [-smoke] [-tail N]
//
// -rate is the injected per-machine fault probability (default 0.75 with
// -smoke, otherwise 1). -step is the frame interval (default: the run
// divided into 12 frames). -tail caps how many events of each black box
// are printed (0 disables dump listings).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"cogrid/internal/experiments"
	"cogrid/internal/grid"
)

func main() {
	seed := flag.Int64("seed", 0, "scenario seed (0: the study's stock seed)")
	rate := flag.Float64("rate", -1, "fault rate to replay (-1: 1, or 0.75 with -smoke)")
	step := flag.Duration("step", 0, "frame interval (0: auto, 12 frames)")
	smoke := flag.Bool("smoke", false, "replay the seconds-long CI configuration")
	tail := flag.Int("tail", 3, "black-box events to print per dump (0: skip dumps)")
	flag.Parse()
	if err := run(os.Stdout, *seed, *rate, *step, *smoke, *tail); err != nil {
		fmt.Fprintln(os.Stderr, "gridtop:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, seed int64, rate float64, step time.Duration, smoke bool, tail int) error {
	if rate < 0 {
		rate = 1
		if smoke {
			rate = 0.75
		}
	}
	row, g, eng := experiments.SLORun(seed, smoke, rate)
	end := g.Sim.Now()
	if step <= 0 {
		step = (end / 12).Round(10 * time.Second)
		if step <= 0 {
			step = 10 * time.Second
		}
	}

	fmt.Fprintf(w, "gridtop — chaos replay, seed %d, fault rate %.2f, %d faults (first at %v)\n",
		experiments.ChaosSeed(seed, smoke), rate, row.Faults, row.FirstFault)
	fmt.Fprintf(w, "%d requests: %d completed, %d failed; run ends at %v\n\n",
		row.Requests, row.Completed, row.Failed, end)

	alerts := eng.Alerts()
	active := map[string]bool{}
	shown := 0
	for t := step; ; t += step {
		if t > end {
			t = end
		}
		frameHeader(w, g, t)
		for shown < len(alerts) && alerts[shown].At <= t {
			a := alerts[shown]
			fmt.Fprintf(w, "   [%v] %s %s (%s): %s\n", a.At, a.State, a.Rule, a.Severity, a.Detail)
			active[a.Rule] = a.State == "fire"
			shown++
		}
		if names := activeNames(active); len(names) > 0 {
			fmt.Fprintf(w, "   ALERTING: %v\n", names)
		}
		if t == end {
			break
		}
	}

	fmt.Fprintf(w, "\nsummary: %d alert fires, %d resolves", row.Alerts, row.Resolves)
	if row.Detected {
		fmt.Fprintf(w, "; first page %s after %v", row.FirstRule, row.DetectionLag)
	}
	fmt.Fprintln(w)
	h := g.Hists.H("broker.request.latency")
	if h.Count() > 0 {
		fmt.Fprintf(w, "request latency: p50 %v  p99 %v  max %v  (%d served)\n",
			time.Duration(h.Quantile(0.5)), time.Duration(h.Quantile(0.99)),
			time.Duration(h.Max()), h.Count())
	}
	dumps := g.Flight.Dumps()
	fmt.Fprintf(w, "black boxes: %d frozen, %d beyond retention\n", len(dumps), g.Flight.Skipped())
	if tail > 0 {
		for _, d := range dumps {
			fmt.Fprintf(w, "  [%v] %s (%s) — %d events\n", d.At, d.Trigger, d.Detail, len(d.Events))
			events := d.Events
			if len(events) > tail {
				events = events[len(events)-tail:]
			}
			for _, ev := range events {
				fmt.Fprintf(w, "      %v %s.%s proc=%s\n", ev.At, ev.Cat, ev.Name, ev.Proc)
			}
		}
	}
	return nil
}

// frameHeader renders one frame's gauge line: the levels the SLO rules
// watch, read from the delta logs at exactly t.
func frameHeader(w io.Writer, g *grid.Grid, t time.Duration) {
	fmt.Fprintf(w, "── t=%-8v queue=%g orphans=%g drops=%g active-alerts=%g\n", t,
		g.Gauges.G("broker.queue_depth@broker0").Value(t),
		g.Gauges.G("broker.orphans@broker0").Value(t),
		g.Gauges.G("transport.drops").Value(t),
		g.Gauges.G("slo.alerts.active").Value(t))
}

func activeNames(active map[string]bool) []string {
	var names []string
	for rule, on := range active {
		if on {
			names = append(names, rule)
		}
	}
	sort.Strings(names)
	return names
}
