package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"cogrid/internal/agent"
	"cogrid/internal/core"
	"cogrid/internal/failure"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/metrics"
	"cogrid/internal/transport"
)

// --- A1: atomic restarts vs interactive transactions (Section 4.3) ---

// AtomicVsInteractiveRow aggregates one failure-probability setting.
type AtomicVsInteractiveRow struct {
	FailProb          float64
	AtomicTime        time.Duration // mean time to a running ensemble
	InteractiveTime   time.Duration
	AtomicRestarts    float64 // mean full restarts under the atomic strategy
	Substitutions     float64 // mean substitutions under DUROC
	AtomicSlowdown    float64 // AtomicTime / InteractiveTime
	Trials            int
	AtomicFailures    int // trials where atomic never succeeded
	InteractiveFailed int
}

// AtomicVsInteractiveResult is the A1 study.
type AtomicVsInteractiveResult struct {
	Machines int
	Startup  time.Duration
	Rows     []AtomicVsInteractiveRow
}

// AtomicVsInteractive reproduces the experience that motivated DUROC
// (Section 4.3): with application startup taking many minutes, an atomic
// transaction must restart the entire ensemble whenever any machine turns
// out bad, while the interactive transaction substitutes the bad machine
// and keeps everything else waiting at the barrier.
//
// n machines are needed; each candidate machine is independently bad with
// probability p (its processes report unsuccessful startup at the
// barrier, discovered only after the startup delay). Both strategies see
// the same bad set per trial and draw replacements from the same spare
// pool.
func AtomicVsInteractive(n int, startup time.Duration, failProbs []float64, trials int, seed int64) AtomicVsInteractiveResult {
	res := AtomicVsInteractiveResult{Machines: n, Startup: startup}
	for _, p := range failProbs {
		row := AtomicVsInteractiveRow{FailProb: p, Trials: trials}
		var atomicSum, interactiveSum time.Duration
		var restartSum, substSum int
		for trial := 0; trial < trials; trial++ {
			// Common random numbers: each machine gets one uniform draw
			// per trial, independent of p, so the bad set grows
			// monotonically with the failure probability and the p-sweep
			// is a paired comparison.
			rng := rand.New(rand.NewSource(seed + int64(trial)*1000003))
			poolSize := n + n + 4
			bad := make(map[string]bool)
			for i := 0; i < poolSize; i++ {
				if rng.Float64() < p {
					bad[machineName(i)] = true
				}
			}
			at, restarts, ok := atomicTrial(n, startup, poolSize, bad, seed+int64(trial))
			if !ok {
				row.AtomicFailures++
			} else {
				atomicSum += at
				restartSum += restarts
			}
			it, subs, ok := interactiveTrial(n, startup, poolSize, bad, seed+int64(trial))
			if !ok {
				row.InteractiveFailed++
			} else {
				interactiveSum += it
				substSum += subs
			}
		}
		okAtomic := trials - row.AtomicFailures
		okInter := trials - row.InteractiveFailed
		if okAtomic > 0 {
			row.AtomicTime = atomicSum / time.Duration(okAtomic)
			row.AtomicRestarts = float64(restartSum) / float64(okAtomic)
		}
		if okInter > 0 {
			row.InteractiveTime = interactiveSum / time.Duration(okInter)
			row.Substitutions = float64(substSum) / float64(okInter)
		}
		if row.InteractiveTime > 0 {
			row.AtomicSlowdown = float64(row.AtomicTime) / float64(row.InteractiveTime)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func machineName(i int) string { return fmt.Sprintf("sc%02d", i) }

// a1Grid builds the trial testbed: poolSize machines whose "sim"
// executable reports unsuccessful startup on bad machines.
func a1Grid(startup time.Duration, poolSize int, bad map[string]bool, seed int64) *grid.Grid {
	g := grid.New(grid.Options{
		Seed:     seed,
		LRMCosts: lrm.Costs{Fork: time.Millisecond, ProcStartup: startup},
	})
	for i := 0; i < poolSize; i++ {
		g.AddMachine(machineName(i), 128, lrm.Fork)
	}
	g.RegisterEverywhere("sim", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if bad[p.Host().Name()] {
			rt.Barrier(false, "numerical library check failed", 0)
			return nil
		}
		if _, err := rt.Barrier(true, "", 24*time.Hour); err != nil {
			return nil
		}
		return p.Work(time.Minute, time.Second)
	})
	return g
}

// atomicTrial runs the GRAB strategy, agent.Atomic, with
// restart-and-replace: on each failure the failed machine is dropped for the
// next full attempt.
func atomicTrial(n int, startup time.Duration, poolSize int, bad map[string]bool, seed int64) (elapsed time.Duration, restarts int, ok bool) {
	g := a1Grid(startup, poolSize, bad, seed)
	ctrl := newController(g)
	timeout := 4*startup + time.Hour
	simErr := g.Sim.Run("agent", func() {
		excluded := make(map[string]bool)
		for attempt := 0; attempt <= poolSize-n; attempt++ {
			var req core.Request
			for i := 0; i < poolSize && len(req.Subjobs) < n; i++ {
				name := machineName(i)
				if excluded[name] {
					continue
				}
				req.Subjobs = append(req.Subjobs, core.SubjobSpec{
					Label: name, Contact: g.Contact(name), Count: 64, Executable: "sim",
					StartupTimeout: timeout,
				})
			}
			if len(req.Subjobs) < n {
				return // pool exhausted
			}
			res, err := agent.Atomic(ctrl, req, timeout)
			if err == nil {
				elapsed = g.Sim.Now()
				ok = true
				res.Job.Kill() // the measurement ends at successful start
				return
			}
			restarts++
			// The first failed subjob (machine) is the one to exclude.
			name, found := firstFailed(res.Job)
			if !found {
				return
			}
			excluded[name] = true
		}
	})
	if simErr != nil {
		panic(simErr)
	}
	return elapsed, restarts, ok
}

// firstFailed returns the label of the first subjob job reported failed.
func firstFailed(job *core.Job) (string, bool) {
	if job == nil {
		return "", false
	}
	for _, ev := range job.History() {
		if ev.Kind == core.EvSubjobFailed {
			return ev.Label, true
		}
	}
	return "", false
}

// interactiveTrial runs the DUROC substitution strategy over the same bad
// set: failures are replaced from the spare pool while healthy machines
// wait in the barrier.
func interactiveTrial(n int, startup time.Duration, poolSize int, bad map[string]bool, seed int64) (elapsed time.Duration, substitutions int, ok bool) {
	g := a1Grid(startup, poolSize, bad, seed)
	ctrl := newController(g)
	simErr := g.Sim.Run("agent", func() {
		var req core.Request
		for i := 0; i < n; i++ {
			req.Subjobs = append(req.Subjobs, core.SubjobSpec{
				Label: machineName(i), Contact: g.Contact(machineName(i)),
				Count: 64, Executable: "sim", Type: core.Interactive,
				StartupTimeout: 4*startup + time.Hour,
			})
		}
		var pool []transport.Addr
		for i := n; i < poolSize; i++ {
			pool = append(pool, g.Contact(machineName(i)))
		}
		res, err := agent.WithSubstitution(ctrl, req, agent.SubstituteOptions{Pool: pool})
		if err != nil {
			return
		}
		elapsed = g.Sim.Now()
		substitutions = res.Substitutions
		ok = true
		res.Job.Kill() // the measurement ends at successful start
	})
	if simErr != nil {
		panic(simErr)
	}
	return elapsed, substitutions, ok
}

// Table renders the study.
func (r AtomicVsInteractiveResult) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("A1: time to running ensemble, atomic (GRAB) vs interactive (DUROC); %d machines, %s startup",
			r.Machines, r.Startup),
		"fail prob", "atomic", "interactive", "restarts", "substitutions", "atomic/interactive")
	for _, row := range r.Rows {
		t.Add(row.FailProb, row.AtomicTime, row.InteractiveTime,
			row.AtomicRestarts, row.Substitutions, row.AtomicSlowdown)
	}
	return t
}

// --- A2: the 1386-process, 13-machine, 9-site run (Section 4.3) ---

// BigRunResult reports the distributed-interactive-simulation style start.
type BigRunResult struct {
	Machines      int
	Sites         int
	RequestedPE   int
	CommittedPE   int
	Subjobs       int
	StartTime     time.Duration
	Substitutions int
	Deleted       int
	Narrative     []string
}

// BigRun reproduces the paper's flagship DUROC experience: starting the
// largest distributed interactive simulation ever performed — 1386
// processors across 13 supercomputers at 9 sites — while configuring
// around machine, network, and application failures.
func BigRun(seed int64) BigRunResult {
	sizes := []int{256, 222, 128, 128, 128, 96, 96, 64, 64, 64, 64, 48, 28} // = 1386
	const sites = 9
	lat := transport.NewMatrixLatency(25 * time.Millisecond)
	g := grid.New(grid.Options{Seed: seed, LatencyModel: lat})

	res := BigRunResult{Machines: len(sizes), Sites: sites}
	names := make([]string, len(sizes))
	siteOf := func(i int) int { return i % sites }
	for i, size := range sizes {
		names[i] = fmt.Sprintf("sc%02d", i)
		g.AddMachine(names[i], size, lrm.Fork)
		res.RequestedPE += size
	}
	// Two spare machines, large enough to substitute for any primary.
	spares := []string{"spare0", "spare1"}
	for _, s := range spares {
		g.AddMachine(s, 256, lrm.Fork)
	}
	// Same-site machines are close; cross-site links are tens of ms.
	all := append(append([]string{}, names...), spares...)
	for i, a := range all {
		for j, b := range all {
			if i >= j {
				continue
			}
			if siteOf(i) == siteOf(j) {
				lat.Set(a, b, 500*time.Microsecond)
			}
		}
	}

	// The application: one process per PE; sc03's processes fail their
	// local startup checks (application failure).
	appFailed := "sc03"
	g.RegisterEverywhere("dis", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if p.Host().Name() == appFailed {
			rt.Barrier(false, "terrain database missing", 0)
			return nil
		}
		if _, err := rt.Barrier(true, "", 0); err != nil {
			return nil
		}
		return p.Work(10*time.Minute, time.Minute)
	})

	// Failure plan: sc07 crashes during startup (machine failure); the
	// workstation's link to sc09 partitions (network failure) so its
	// subjob times out silently.
	failure.Plan{
		{At: 20 * time.Second, Kind: failure.HostCrash, Target: "sc07"},
		{At: 1 * time.Second, Kind: failure.Partition, Target: "workstation", Target2: "sc09"},
	}.Apply(g)

	ctrl := newController(g)
	var req core.Request
	for i, name := range names {
		typ := core.Interactive
		if i == 0 {
			typ = core.Required // the simulation coordinator
		}
		req.Subjobs = append(req.Subjobs, core.SubjobSpec{
			Label: name, Contact: g.Contact(name), Count: sizes[i],
			Executable: "dis", Type: typ, StartupTimeout: 2 * time.Minute,
		})
	}
	var pool []transport.Addr
	for _, s := range spares {
		pool = append(pool, g.Contact(s))
	}
	err := g.Sim.Run("agent", func() {
		out, err := agent.WithSubstitution(ctrl, req, agent.SubstituteOptions{
			Pool:              pool,
			DropUnreplaceable: true,
		})
		if err != nil {
			res.Narrative = append(res.Narrative, "FAILED: "+err.Error())
			return
		}
		res.StartTime = g.Sim.Now()
		res.CommittedPE = out.Config.WorldSize
		res.Subjobs = out.Config.NSubjobs
		res.Substitutions = out.Substitutions
		res.Deleted = out.Deleted
		for _, info := range out.Job.Status() {
			if info.Status == core.SJFailed || info.Status == core.SJDeleted {
				res.Narrative = append(res.Narrative,
					fmt.Sprintf("subjob %-8s %-8s %s", info.Spec.Label, info.Status, info.Reason))
			}
		}
		out.Job.Kill()
	})
	if err != nil {
		panic(err)
	}
	return res
}

// Table renders the run summary.
func (r BigRunResult) Table() *metrics.Table {
	t := metrics.NewTable("A2: 1386-processor start across 13 machines at 9 sites, configured around failures",
		"metric", "value")
	t.Add("machines requested", r.Machines)
	t.Add("processors requested", r.RequestedPE)
	t.Add("subjobs committed", r.Subjobs)
	t.Add("processors committed", r.CommittedPE)
	t.Add("substitutions", r.Substitutions)
	t.Add("subjobs dropped", r.Deleted)
	t.Add("time to committed start", r.StartTime)
	return t
}
