// Package workload generates synthetic parallel workloads in the style of
// the job-scheduling literature the paper leans on ([9] Downey, [14]
// Gehring & Preiss, [26] Smith–Foster–Taylor): Poisson arrivals, sizes
// biased to powers of two, heavy-tailed log-uniform runtimes, and user
// wall-limit overestimates. These drive batch machines as background load
// for the co-allocation-under-load studies.
//
// It also holds the foreground half of a run (testbed.go): the one brokered
// testbed (NewTestbed), the one client (Submit) and the one load loop
// (Testbed.Run) that the brokered studies, the DST harness and the gridsim
// demos all build and drive their grids through.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"cogrid/internal/lrm"
	"cogrid/internal/vtime"
)

// Model parameterizes a synthetic workload.
type Model struct {
	// MeanInterarrival is the Poisson arrival process's mean gap.
	MeanInterarrival time.Duration
	// MaxSize bounds job sizes (usually the machine size).
	MaxSize int
	// MinRuntime and MaxRuntime bound the log-uniform runtime
	// distribution.
	MinRuntime time.Duration
	MaxRuntime time.Duration
	// PowerOfTwoProb is the probability a job size is rounded to a power
	// of two (the well-known cluster workload artifact). Default 0.75.
	PowerOfTwoProb float64
	// LimitOverestimateMax: user wall limits are runtime times
	// uniform[1, this]. Default 3.
	LimitOverestimateMax float64
}

// Job is one generated background job.
type Job struct {
	At      time.Duration
	Size    int
	Runtime time.Duration
	Limit   time.Duration
}

// Generate draws jobs with arrivals in [0, horizon).
func (m Model) Generate(rng *rand.Rand, horizon time.Duration) []Job {
	p2 := m.PowerOfTwoProb
	if p2 == 0 {
		p2 = 0.75
	}
	overMax := m.LimitOverestimateMax
	if overMax < 1 {
		overMax = 3
	}
	var jobs []Job
	at := time.Duration(0)
	for {
		gap := time.Duration(rng.ExpFloat64() * float64(m.MeanInterarrival))
		at += gap
		if at >= horizon {
			return jobs
		}
		jobs = append(jobs, Job{
			At:      at,
			Size:    m.drawSize(rng),
			Runtime: m.drawRuntime(rng),
		})
		j := &jobs[len(jobs)-1]
		j.Limit = time.Duration(float64(j.Runtime) * (1 + rng.Float64()*(overMax-1)))
	}
}

// drawSize draws a log-uniform size in [1, MaxSize], usually rounded to a
// power of two.
func (m Model) drawSize(rng *rand.Rand) int {
	maxLog := math.Log2(float64(m.MaxSize))
	size := int(math.Exp2(rng.Float64() * maxLog))
	if size < 1 {
		size = 1
	}
	if size > m.MaxSize {
		size = m.MaxSize
	}
	if rng.Float64() < m.powerOfTwoProb() {
		p := 1
		for p*2 <= size {
			p *= 2
		}
		size = p
	}
	return size
}

// powerOfTwoProb returns the configured probability or 0.75.
func (m Model) powerOfTwoProb() float64 {
	if m.PowerOfTwoProb == 0 {
		return 0.75
	}
	return m.PowerOfTwoProb
}

// drawRuntime draws a log-uniform runtime in [MinRuntime, MaxRuntime].
func (m Model) drawRuntime(rng *rand.Rand) time.Duration {
	lo, hi := math.Log(float64(m.MinRuntime)), math.Log(float64(m.MaxRuntime))
	return time.Duration(math.Exp(lo + rng.Float64()*(hi-lo)))
}

// ForLoad builds a model whose offered load on a machine of the given
// size is approximately rho: interarrival = E[size]*E[runtime] /
// (rho*procs). Expectations use the log-uniform means.
func ForLoad(rho float64, procs int, minRuntime, maxRuntime time.Duration) Model {
	m := Model{
		MaxSize:    procs,
		MinRuntime: minRuntime,
		MaxRuntime: maxRuntime,
	}
	// Mean job size under the mixed distribution: with probability p2 the
	// log-uniform draw 2^(U·L) is rounded down to a power of two
	// (E = (procs-1)/L, since floor(U·L) is uniform over 0..L-1 and
	// sum 2^k = procs-1); otherwise it stays continuous
	// (E = (procs-1)/(L·ln2)).
	l := math.Log2(float64(procs))
	p2 := m.powerOfTwoProb()
	meanSize := p2*(float64(procs)-1)/l + (1-p2)*(float64(procs)-1)/(l*math.Ln2)
	lo, hi := math.Log(float64(minRuntime)), math.Log(float64(maxRuntime))
	meanRuntime := (math.Exp(hi) - math.Exp(lo)) / (hi - lo)
	m.MeanInterarrival = time.Duration(meanSize * meanRuntime / (rho * float64(procs)))
	return m
}

// envRuntime is the environment key carrying a background job's runtime
// in milliseconds.
const envRuntime = "WORKLOAD_RUNTIME_MS"

// RegisterExecutable installs the background-load executable: each
// process works for the runtime passed through the environment.
func RegisterExecutable(m *lrm.Machine, name string) {
	m.RegisterExecutable(name, func(p *lrm.Proc) error {
		ms, err := strconv.Atoi(p.Getenv(envRuntime))
		if err != nil {
			return fmt.Errorf("workload: bad %s: %v", envRuntime, err)
		}
		return p.Work(time.Duration(ms)*time.Millisecond, time.Minute)
	})
}

// Drive schedules the workload's submissions onto a machine. The
// executable must have been installed with RegisterExecutable. Submissions
// happen at each job's arrival time; jobs queue under the machine's
// scheduler like any other work.
//
// Batch-mode submission never blocks on kernel primitives, so those
// arrivals are passive timers, run on the stack of whichever process is
// dispatching, rather than paying one goroutine per arrival — at 10⁶
// arrivals that is a million short-lived goroutines saved. Fork-mode
// Submit sleeps for the fork cost and keeps the goroutine-per-timer path.
func Drive(sim *vtime.Sim, m *lrm.Machine, executable string, jobs []Job) {
	after := sim.AfterFunc
	if m.Mode() == lrm.Batch {
		after = sim.AfterFuncPassive
	}
	for _, job := range jobs {
		job := job
		after(job.At, func() {
			m.Submit(lrm.JobSpec{
				Executable: executable,
				Count:      job.Size,
				TimeLimit:  job.Limit,
				Env: map[string]string{
					envRuntime: strconv.Itoa(int(job.Runtime / time.Millisecond)),
				},
			})
		})
	}
}
