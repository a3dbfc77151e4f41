package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cogrid/internal/lrm"
	"cogrid/internal/metrics"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// --- B4: million-scale kernel throughput ---

// ScaleConfig parameterizes the scale study: a Poisson stream of batch
// jobs spread round-robin across a fleet of machines, run raw on the
// kernel (no GRAM/DUROC protocol layers) so the numbers measure timer
// dispatch, the blocked-process registry, and the batch scheduler — the
// paths the timing wheel and release index exist for. Zero values select
// the full-size run: 10⁶ jobs over 10⁴ 32-processor machines.
type ScaleConfig struct {
	Jobs        int
	Machines    int
	MachineSize int
	// MaxProcs caps the per-job process count (drawn uniformly from
	// 1..MaxProcs).
	MaxProcs int
	// MinRuntime/MaxRuntime bound the per-process work time (drawn
	// uniformly). The wall-time limit is 2× the drawn runtime, so every
	// running job also carries a passive limit timer, stopped when the
	// job finishes.
	MinRuntime time.Duration
	MaxRuntime time.Duration
	// MeanInterarrival is the Poisson arrival spacing. The default keeps
	// offered load slightly above fleet capacity, so queues form and the
	// backfill/release-index paths stay hot for the whole run.
	MeanInterarrival time.Duration
	Seed             int64
}

// ScaleSmokeConfig is the seconds-long slice of B4 that CI runs (make
// scale-smoke) and that the kernel-equivalence suite of internal/vtime
// runs once on the reference heap and once on the wheel: 10⁴ jobs over 10²
// machines, the scale-path differential the protocol-heavy DST scenarios
// are too small to reach.
func ScaleSmokeConfig(seed int64) ScaleConfig {
	return ScaleConfig{
		Jobs:             10_000,
		Machines:         100,
		MachineSize:      32,
		MeanInterarrival: 200 * time.Millisecond,
		Seed:             seed,
	}
}

func (c *ScaleConfig) fill() {
	if c.Jobs <= 0 {
		c.Jobs = 1_000_000
	}
	if c.Machines <= 0 {
		c.Machines = 10_000
	}
	if c.MachineSize <= 0 {
		c.MachineSize = 32
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = 4
	}
	if c.MinRuntime <= 0 {
		c.MinRuntime = 30 * time.Second
	}
	if c.MaxRuntime <= c.MinRuntime {
		c.MaxRuntime = 10 * time.Minute
	}
	if c.MeanInterarrival <= 0 {
		c.MeanInterarrival = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// ScaleRow is one run's outcome. The virtual-time columns (everything
// except the wall-clock trio at the end) are deterministic for a fixed
// config and identical whichever timer store the kernel runs on
// (VirtualEqual; internal/vtime's equivalence suite checks it).
type ScaleRow struct {
	Jobs        int   `json:"jobs"`
	Machines    int   `json:"machines"`
	MachineSize int   `json:"machine_size"`
	Done        int64 `json:"done"`
	Failed      int64 `json:"failed"`
	TimersFired int64 `json:"timers_fired"`
	// What the run cost the kernel besides timers: processes started,
	// goroutine switches, task steps. Deterministic like TimersFired.
	Spawned  int64 `json:"spawned"`
	Handoffs int64 `json:"handoffs"`
	TasksRun int64 `json:"tasks_run"`
	// VirtualEnd is the drain time: the first poll tick at which every
	// job had reached a terminal state.
	VirtualEnd time.Duration `json:"virtual_end_ns"`
	MeanWait   time.Duration `json:"mean_wait_ns"` // accept-to-launch queue wait
	P99Wait    time.Duration `json:"p99_wait_ns"`
	// Wall-clock cost of the run — real time, informational only.
	Wall       time.Duration `json:"wall_ns"`
	NsPerJob   float64       `json:"ns_per_job"`
	JobsPerSec float64       `json:"jobs_per_sec"`
}

// ScaleResult is the B4 study.
type ScaleResult struct {
	Jobs     int        `json:"jobs"`
	Machines int        `json:"machines"`
	Rows     []ScaleRow `json:"rows"`
}

// scalePollInterval is the drain-poll spacing. The driver scans the fleet's
// terminal counts on this virtual-time grid, so VirtualEnd is quantized to
// it — deterministically, since completion state is a pure function of
// virtual time.
const scalePollInterval = 10 * time.Second

// ScaleStudy runs the config: one row.
func ScaleStudy(cfg ScaleConfig) ScaleResult {
	cfg.fill()
	return ScaleResult{Jobs: cfg.Jobs, Machines: cfg.Machines, Rows: []ScaleRow{scaleRun(cfg)}}
}

// scaleRun pushes cfg.Jobs batch jobs through the fleet. Arrivals are a
// chained passive timer — each firing submits one job and schedules the
// next — so the stream itself rides the timer engine, alongside every
// wall-limit timer, process-startup wait, and work sleep the jobs generate.
func scaleRun(cfg ScaleConfig) ScaleRow {
	row := ScaleRow{
		Jobs:        cfg.Jobs,
		Machines:    cfg.Machines,
		MachineSize: cfg.MachineSize,
	}
	sim := vtime.NewSeeded(cfg.Seed)
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	hists := metrics.NewHistogramSet()
	net.SetHists(hists)

	machines := make([]*lrm.Machine, cfg.Machines)
	for i := range machines {
		host := net.AddHost(fmt.Sprintf("m%05d", i))
		machines[i] = lrm.NewMachine(host, cfg.MachineSize, lrm.Config{
			Mode:  lrm.Batch,
			Costs: lrm.Costs{Fork: time.Millisecond, ProcStartup: time.Second},
			// Terminal jobs leave the table immediately: memory stays
			// proportional to live work, and Stats() keeps the counts.
			RetireTerminal: true,
		})
		machines[i].RegisterExecutable("work", func(p *lrm.Proc) error {
			// Per-process runtime arrives via Env to keep the executable
			// closure-free; the step is coarse so long runs sleep in one go.
			d, err := time.ParseDuration(p.Env["runtime"])
			if err != nil {
				return err
			}
			return p.Work(d, time.Hour)
		})
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	runtimeSpan := int64(cfg.MaxRuntime - cfg.MinRuntime)
	var arrive func(i int)
	arrive = func(i int) {
		m := machines[i%len(machines)]
		runtime := cfg.MinRuntime + time.Duration(rng.Int63n(runtimeSpan))
		_, err := m.Submit(lrm.JobSpec{
			Executable: "work",
			Count:      1 + rng.Intn(cfg.MaxProcs),
			Env:        map[string]string{"runtime": runtime.String()},
			TimeLimit:  2 * runtime,
		})
		if err != nil {
			// Machines are sized for every draw and never down, so Submit
			// cannot fail; a failure here is a harness bug worth crashing on.
			panic(fmt.Sprintf("scale: submit job %d: %v", i, err))
		}
		if next := i + 1; next < cfg.Jobs {
			gap := time.Duration(rng.ExpFloat64() * float64(cfg.MeanInterarrival))
			sim.AfterFuncPassive(gap, func() { arrive(next) })
		}
	}

	start := time.Now()
	err := sim.Run("scale-driver", func() {
		arrive(0)
		for {
			var done, failed int64
			for _, m := range machines {
				st := m.Stats()
				done += st.Done
				failed += st.Failed
			}
			if done+failed >= int64(cfg.Jobs) {
				row.Done, row.Failed = done, failed
				row.VirtualEnd = sim.Now()
				return
			}
			sim.Sleep(scalePollInterval)
		}
	})
	row.Wall = time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("scale: sim: %v", err))
	}
	row.TimersFired = sim.TimersFired()
	row.Spawned, row.Handoffs, row.TasksRun = sim.Spawned(), sim.Handoffs(), sim.TasksRun()
	if h := hists.H("lrm.queue.wait"); h.Count() > 0 {
		row.MeanWait = time.Duration(h.Mean())
		row.P99Wait = time.Duration(h.Quantile(0.99))
	}
	if cfg.Jobs > 0 {
		row.NsPerJob = float64(row.Wall.Nanoseconds()) / float64(cfg.Jobs)
	}
	if s := row.Wall.Seconds(); s > 0 {
		row.JobsPerSec = float64(cfg.Jobs) / s
	}
	return row
}

// VirtualEqual reports whether two rows agree on every deterministic
// virtual-time column — the engine-equivalence bar for the smoke run.
func (r ScaleRow) VirtualEqual(o ScaleRow) bool {
	return r.Done == o.Done && r.Failed == o.Failed &&
		r.TimersFired == o.TimersFired && r.Spawned == o.Spawned &&
		r.Handoffs == o.Handoffs && r.TasksRun == o.TasksRun && r.VirtualEnd == o.VirtualEnd &&
		r.MeanWait == o.MeanWait && r.P99Wait == o.P99Wait
}

// Table renders the study as text.
func (r ScaleResult) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d jobs over %d machines\n", r.Jobs, r.Machines)
	fmt.Fprintf(&sb, "%9s %7s %12s %12s %10s %10s %9s %9s %10s\n",
		"done", "failed", "timers", "virt end", "mean wait", "p99 wait",
		"wall", "ns/job", "jobs/sec")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%9d %7d %12d %12s %10s %10s %9s %9.0f %10.0f\n",
			row.Done, row.Failed, row.TimersFired,
			row.VirtualEnd.Truncate(time.Second), row.MeanWait.Truncate(time.Millisecond),
			row.P99Wait.Truncate(time.Millisecond), row.Wall.Truncate(time.Millisecond),
			row.NsPerJob, row.JobsPerSec)
	}
	return sb.String()
}
