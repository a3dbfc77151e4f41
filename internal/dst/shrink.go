package dst

import "time"

// DefaultShrinkBudget caps how many re-runs a shrink may spend.
const DefaultShrinkBudget = 200

// ShrinkResult is the outcome of minimizing a failing scenario.
type ShrinkResult struct {
	// Scenario is the smallest scenario found that still violates an
	// invariant.
	Scenario Scenario `json:"scenario"`
	// Violations are the surviving scenario's violations.
	Violations []Violation `json:"violations"`
	// Runs counts scenario executions spent shrinking.
	Runs int `json:"runs"`
}

// Replay renders the minimal reproduction as a one-liner.
func (r ShrinkResult) Replay() string {
	return "dstgrid -scenario '" + r.Scenario.JSON() + "'"
}

// Shrink greedily minimizes a failing scenario: at each step it proposes
// reductions (drop background load, drop a fault, drop a job, drop a
// subjob, drop an unused machine, shrink process counts, compact the
// schedule) and keeps the first one that still violates an invariant,
// until no proposal reproduces or the run budget is spent. Greedy and
// deterministic: the same failing scenario always shrinks to the same
// minimal one.
func Shrink(sc Scenario, opts RunOptions, budget int) ShrinkResult {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	res := ShrinkResult{Scenario: sc}
	fails := func(c Scenario) []Violation {
		if res.Runs >= budget {
			return nil
		}
		res.Runs++
		r, err := Run(c, opts)
		if err != nil {
			return nil
		}
		return r.Violations
	}
	res.Violations = fails(sc)
	if len(res.Violations) == 0 {
		return res
	}
	for {
		progressed := false
		for _, cand := range reductions(res.Scenario) {
			if v := fails(cand); len(v) > 0 {
				res.Scenario, res.Violations = cand, v
				progressed = true
				break
			}
		}
		if !progressed || res.Runs >= budget {
			return res
		}
	}
}

// reductions proposes strictly smaller variants of the scenario, most
// aggressive first so the greedy loop converges in few runs.
func reductions(sc Scenario) []Scenario {
	var out []Scenario
	if len(sc.Background) > 0 {
		c := clone(sc)
		c.Background = nil
		out = append(out, c)
	}
	for i := range sc.Jobs {
		c := clone(sc)
		c.Jobs = append(c.Jobs[:i:i], c.Jobs[i+1:]...)
		if len(c.Jobs) > 0 {
			out = append(out, c)
		}
	}
	for i := range sc.Faults {
		c := clone(sc)
		c.Faults = append(c.Faults[:i:i], c.Faults[i+1:]...)
		out = append(out, c)
	}
	// Shrink the replica group, but only while no crash fault names the
	// replica being dropped — those reductions were already proposed.
	if sc.Driver == DriverFed && sc.Replicas > 1 {
		last := fedReplicaName(sc.Replicas - 1)
		targeted := false
		for _, f := range sc.Faults {
			if f.Kind == "broker-crash" && f.Target == last {
				targeted = true
				break
			}
		}
		if !targeted {
			c := clone(sc)
			c.Replicas--
			out = append(out, c)
		}
	}
	for i, j := range sc.Jobs {
		for k := range j.Subjobs {
			if len(j.Subjobs) <= 1 {
				break
			}
			c := clone(sc)
			cj := &c.Jobs[i]
			cj.Subjobs = append(cj.Subjobs[:k:k], cj.Subjobs[k+1:]...)
			out = append(out, c)
		}
		if j.Sites > 1 {
			c := clone(sc)
			c.Jobs[i].Sites--
			out = append(out, c)
		}
	}
	if c, ok := dropUnusedMachines(sc); ok {
		out = append(out, c)
	}
	for i, j := range sc.Jobs {
		for k, sj := range j.Subjobs {
			if sj.Count > 1 {
				c := clone(sc)
				c.Jobs[i].Subjobs[k].Count = 1
				out = append(out, c)
			}
		}
		if j.ProcsPerSite > 1 {
			c := clone(sc)
			c.Jobs[i].ProcsPerSite = 1
			out = append(out, c)
		}
	}
	if c, ok := compactSchedule(sc); ok {
		out = append(out, c)
	}
	return out
}

// dropUnusedMachines removes machines no subjob, fault, or background
// job references. Broker and fed scenarios keep every machine: placement
// there is the broker's choice, not the scenario's.
func dropUnusedMachines(sc Scenario) (Scenario, bool) {
	if sc.Driver != DriverDuroc {
		return sc, false
	}
	used := map[string]bool{}
	for _, j := range sc.Jobs {
		for _, sj := range j.Subjobs {
			used[sj.Machine] = true
		}
	}
	for _, f := range sc.Faults {
		if f.Target != "" {
			used[f.Target] = true
		}
	}
	for _, b := range sc.Background {
		used[b.Machine] = true
	}
	c := clone(sc)
	c.Machines = nil
	for _, m := range sc.Machines {
		if used[m.Name] {
			c.Machines = append(c.Machines, m)
		}
	}
	return c, len(c.Machines) > 0 && len(c.Machines) < len(sc.Machines)
}

// compactSchedule halves every arrival and fault onset past the first
// second, shortening the schedule without reordering it.
func compactSchedule(sc Scenario) (Scenario, bool) {
	c := clone(sc)
	changed := false
	squeeze := func(d time.Duration) time.Duration {
		if d <= time.Second {
			return d
		}
		changed = true
		return time.Second + (d-time.Second)/2
	}
	for i := range c.Jobs {
		c.Jobs[i].At = squeeze(c.Jobs[i].At)
	}
	for i := range c.Faults {
		c.Faults[i].At = squeeze(c.Faults[i].At)
	}
	for i := range c.Background {
		c.Background[i].At = squeeze(c.Background[i].At)
	}
	return c, changed
}

// clone deep-copies a scenario so reductions never alias each other.
func clone(sc Scenario) Scenario {
	c := sc
	c.Machines = append([]MachineSpec(nil), sc.Machines...)
	c.Jobs = make([]JobSpec, len(sc.Jobs))
	for i, j := range sc.Jobs {
		c.Jobs[i] = j
		c.Jobs[i].Subjobs = append([]SubjobSpec(nil), j.Subjobs...)
	}
	c.Background = append([]BackgroundJob(nil), sc.Background...)
	c.Faults = append([]FaultSpec(nil), sc.Faults...)
	return c
}
