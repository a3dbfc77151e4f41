package lrm

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// newMachine builds a machine on a fresh simulation.
func newMachine(procs int, mode Mode) (*vtime.Sim, *Machine) {
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	host := net.AddHost("origin")
	m := NewMachine(host, procs, Config{Mode: mode})
	return sim, m
}

// registerWork installs a "work" executable running for the given time.
func registerWork(m *Machine, d time.Duration) {
	m.RegisterExecutable("work", func(p *Proc) error {
		return p.Work(d, time.Second)
	})
}

func TestForkSubmitStartsImmediately(t *testing.T) {
	sim, m := newMachine(64, Fork)
	registerWork(m, time.Second)
	err := sim.Run("main", func() {
		start := sim.Now()
		job, err := m.Submit(JobSpec{Executable: "work", Count: 4})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if took := sim.Now() - start; took != DefaultCosts.Fork {
			t.Errorf("Submit took %v, want fork cost %v", took, DefaultCosts.Fork)
		}
		if job.State() != StateActive {
			t.Errorf("state after submit = %v, want ACTIVE", job.State())
		}
		job.Done().Wait()
		if job.State() != StateDone {
			t.Errorf("terminal state = %v, want DONE", job.State())
		}
		// fork 1ms + startup 750ms + 1s work
		want := DefaultCosts.Fork + DefaultCosts.ProcStartup + time.Second
		if sim.Now() != want {
			t.Errorf("job finished at %v, want %v", sim.Now(), want)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestForkAllowsOversubscription(t *testing.T) {
	sim, m := newMachine(4, Fork)
	registerWork(m, time.Millisecond)
	err := sim.Run("main", func() {
		job, err := m.Submit(JobSpec{Executable: "work", Count: 16})
		if err != nil {
			t.Errorf("Submit 16 procs on 4-proc fork machine: %v", err)
			return
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestJobEventsStream(t *testing.T) {
	sim, m := newMachine(8, Fork)
	registerWork(m, time.Second)
	err := sim.Run("main", func() {
		job, err := m.Submit(JobSpec{Executable: "work", Count: 2})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		var states []JobState
		for {
			s, ok := job.Events().Recv()
			if !ok {
				break
			}
			states = append(states, s)
		}
		if len(states) != 2 || states[0] != StateActive || states[1] != StateDone {
			t.Errorf("events = %v, want [ACTIVE DONE]", states)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestProcessFailureFailsJobAndKillsSiblings(t *testing.T) {
	sim, m := newMachine(8, Fork)
	m.RegisterExecutable("flaky", func(p *Proc) error {
		if p.Rank == 1 {
			if err := p.Sleep(time.Second); err != nil {
				return err
			}
			return fmt.Errorf("disk check failed")
		}
		// Siblings would run for an hour; the failure must cut them short.
		return p.Work(time.Hour, time.Second)
	})
	err := sim.Run("main", func() {
		job, err := m.Submit(JobSpec{Executable: "flaky", Count: 4})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		job.Done().Wait()
		if job.State() != StateFailed {
			t.Errorf("state = %v, want FAILED", job.State())
		}
		if job.Reason() != "disk check failed" {
			t.Errorf("reason = %q", job.Reason())
		}
		if sim.Now() > 10*time.Second {
			t.Errorf("failure took %v; siblings were not killed promptly", sim.Now())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCancelKillsProcesses(t *testing.T) {
	sim, m := newMachine(8, Fork)
	registerWork(m, time.Hour)
	err := sim.Run("main", func() {
		job, err := m.Submit(JobSpec{Executable: "work", Count: 4})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		sim.Sleep(5 * time.Second)
		job.Cancel()
		if job.State() != StateCancelled {
			t.Errorf("state = %v, want CANCELLED", job.State())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	sim, m := newMachine(8, Batch)
	registerWork(m, time.Second)
	err := sim.Run("main", func() {
		if _, err := m.Submit(JobSpec{Executable: "nope", Count: 1}); !errors.Is(err, ErrUnknownExecutable) {
			t.Errorf("unknown executable: %v", err)
		}
		if _, err := m.Submit(JobSpec{Executable: "work", Count: 0}); !errors.Is(err, ErrBadCount) {
			t.Errorf("zero count: %v", err)
		}
		if _, err := m.Submit(JobSpec{Executable: "work", Count: 9}); !errors.Is(err, ErrTooLarge) {
			t.Errorf("oversized batch job: %v", err)
		}
		m.SetDown(true)
		if _, err := m.Submit(JobSpec{Executable: "work", Count: 1}); !errors.Is(err, ErrMachineDown) {
			t.Errorf("down machine: %v", err)
		}
		m.SetDown(false)
		if _, err := m.Submit(JobSpec{Executable: "work", Count: 1}); err != nil {
			t.Errorf("after restore: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestSlowFactorStretchesStartup(t *testing.T) {
	sim, m := newMachine(8, Fork)
	m.RegisterExecutable("noop", func(p *Proc) error { return nil })
	m.SetSlowFactor(10)
	err := sim.Run("main", func() {
		job, err := m.Submit(JobSpec{Executable: "noop", Count: 1})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		job.Done().Wait()
		want := DefaultCosts.Fork + 10*DefaultCosts.ProcStartup
		if sim.Now() != want {
			t.Errorf("slow job finished at %v, want %v", sim.Now(), want)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestBatchFCFSQueueing(t *testing.T) {
	sim, m := newMachine(4, Batch)
	registerWork(m, 10*time.Second)
	err := sim.Run("main", func() {
		a, err := m.Submit(JobSpec{Executable: "work", Count: 4, TimeLimit: time.Minute})
		if err != nil {
			t.Errorf("Submit a: %v", err)
			return
		}
		b, err := m.Submit(JobSpec{Executable: "work", Count: 4, TimeLimit: time.Minute})
		if err != nil {
			t.Errorf("Submit b: %v", err)
			return
		}
		if a.State() != StateActive {
			t.Errorf("first job state = %v, want ACTIVE", a.State())
		}
		if b.State() != StatePending {
			t.Errorf("second job state = %v, want PENDING (machine full)", b.State())
		}
		b.Done().Wait()
		// a: startup 750ms + 10s; b starts when a ends, same again.
		wantA := DefaultCosts.ProcStartup + 10*time.Second
		want := 2 * wantA
		if sim.Now() != want {
			t.Errorf("second job finished at %v, want %v", sim.Now(), want)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestBatchBackfillRunsSmallShortJob(t *testing.T) {
	sim, m := newMachine(4, Batch)
	registerWork(m, 10*time.Second)
	m.RegisterExecutable("short", func(p *Proc) error { return p.Work(time.Second, time.Second) })
	err := sim.Run("main", func() {
		// a occupies 3 of 4 processors for ~10s.
		_, err := m.Submit(JobSpec{Executable: "work", Count: 3, TimeLimit: 20 * time.Second})
		if err != nil {
			t.Errorf("Submit a: %v", err)
			return
		}
		// head needs the whole machine: blocked behind a.
		head, err := m.Submit(JobSpec{Executable: "work", Count: 4, TimeLimit: 20 * time.Second})
		if err != nil {
			t.Errorf("Submit head: %v", err)
			return
		}
		// small short job fits in the hole and finishes before the shadow
		// time: must be backfilled.
		bf, err := m.Submit(JobSpec{Executable: "short", Count: 1, TimeLimit: 5 * time.Second})
		if err != nil {
			t.Errorf("Submit bf: %v", err)
			return
		}
		if bf.State() != StateActive {
			t.Errorf("backfill job state = %v, want ACTIVE", bf.State())
		}
		if head.State() != StatePending {
			t.Errorf("head state = %v, want PENDING", head.State())
		}
		// A long small job must NOT be backfilled: it would delay the head.
		long, err := m.Submit(JobSpec{Executable: "work", Count: 1, TimeLimit: time.Hour})
		if err != nil {
			t.Errorf("Submit long: %v", err)
			return
		}
		if long.State() != StatePending {
			t.Errorf("long small job state = %v, want PENDING (would delay head)", long.State())
		}
		head.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestBatchTimeLimitKillsJob(t *testing.T) {
	sim, m := newMachine(4, Batch)
	registerWork(m, time.Hour)
	err := sim.Run("main", func() {
		job, err := m.Submit(JobSpec{Executable: "work", Count: 2, TimeLimit: 5 * time.Second})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		job.Done().Wait()
		if job.State() != StateFailed {
			t.Errorf("state = %v, want FAILED", job.State())
		}
		if job.Reason() != "wall-time limit exceeded" {
			t.Errorf("reason = %q", job.Reason())
		}
		if sim.Now() != 5*time.Second {
			t.Errorf("killed at %v, want 5s", sim.Now())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCancelPendingJobLeavesQueue(t *testing.T) {
	sim, m := newMachine(2, Batch)
	registerWork(m, 10*time.Second)
	err := sim.Run("main", func() {
		a, _ := m.Submit(JobSpec{Executable: "work", Count: 2, TimeLimit: time.Minute})
		b, _ := m.Submit(JobSpec{Executable: "work", Count: 2, TimeLimit: time.Minute})
		c, _ := m.Submit(JobSpec{Executable: "work", Count: 2, TimeLimit: time.Minute})
		b.Cancel()
		if b.State() != StateCancelled {
			t.Errorf("cancelled pending job state = %v", b.State())
		}
		c.Done().Wait()
		_ = a
		// c runs right after a: cancelled b must not hold the queue.
		want := 2 * (DefaultCosts.ProcStartup + 10*time.Second)
		if sim.Now() != want {
			t.Errorf("c finished at %v, want %v", sim.Now(), want)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestQueueInfoAndEstimateWait(t *testing.T) {
	sim, m := newMachine(4, Batch)
	registerWork(m, time.Hour)
	err := sim.Run("main", func() {
		m.Submit(JobSpec{Executable: "work", Count: 4, TimeLimit: 100 * time.Second})
		m.Submit(JobSpec{Executable: "work", Count: 2, TimeLimit: 50 * time.Second})
		info := m.QueueInfo()
		if info.RunningJobs != 1 || len(info.QueuedJobs) != 1 || info.FreeProcessors != 0 {
			t.Errorf("QueueInfo = %+v", info)
		}
		// New 4-proc job: waits for running (100s) then queued (50s).
		est := m.EstimateWait(4)
		if est != 150*time.Second {
			t.Errorf("EstimateWait(4) = %v, want 150s", est)
		}
		// A 2-proc job could start beside the queued 2-proc job at 100s.
		est2 := m.EstimateWait(2)
		if est2 != 100*time.Second {
			t.Errorf("EstimateWait(2) = %v, want 100s", est2)
		}
		if m.EstimateWait(5) != defaultLimit {
			t.Errorf("EstimateWait(too big) = %v, want %v", m.EstimateWait(5), defaultLimit)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestProcContext(t *testing.T) {
	sim, m := newMachine(8, Fork)
	ranks := make([]bool, 3)
	m.RegisterExecutable("probe", func(p *Proc) error {
		if p.Count != 3 {
			t.Errorf("Count = %d, want 3", p.Count)
		}
		if p.Getenv("DUROC_INDEX") != "7" {
			t.Errorf("env DUROC_INDEX = %q", p.Getenv("DUROC_INDEX"))
		}
		if p.Getenv("MISSING") != "" {
			t.Errorf("missing env = %q", p.Getenv("MISSING"))
		}
		if p.Host().Name() != "origin" {
			t.Errorf("host = %q", p.Host().Name())
		}
		ranks[p.Rank] = true
		return nil
	})
	err := sim.Run("main", func() {
		job, err := m.Submit(JobSpec{Executable: "probe", Count: 3, Env: map[string]string{"DUROC_INDEX": "7"}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for r, seen := range ranks {
		if !seen {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestJobLookup(t *testing.T) {
	sim, m := newMachine(8, Fork)
	registerWork(m, time.Millisecond)
	err := sim.Run("main", func() {
		job, _ := m.Submit(JobSpec{Executable: "work", Count: 1})
		got, err := m.Job(job.ID())
		if err != nil || got != job {
			t.Errorf("Job(%q) = %v, %v", job.ID(), got, err)
		}
		if _, err := m.Job("nope"); !errors.Is(err, ErrNoSuchJob) {
			t.Errorf("missing job lookup: %v", err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// The wall-limit timer belongs to the running job: a job that finishes
// early stops it, so nothing stays filed in the kernel's timer queue that
// holds the job (under RetireTerminal the machine has let go of it too) and
// nothing fires at the instant the limit would have struck; a job that
// does overrun is still killed there.
func TestWallLimitTimerDiesWithItsJob(t *testing.T) {
	sim := vtime.New()
	host := transport.New(sim, transport.UniformLatency(time.Millisecond)).AddHost("origin")
	m := NewMachine(host, 8, Config{Mode: Fork, RetireTerminal: true})
	registerWork(m, 10*time.Second)
	m.RegisterExecutable("overrun", func(p *Proc) error { return p.Work(time.Hour, time.Second) })
	collected := make(chan struct{})
	err := sim.Run("main", func() {
		func() {
			job, err := m.Submit(JobSpec{Executable: "work", Count: 2, TimeLimit: time.Minute})
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			runtime.SetFinalizer(job, func(*Job) { close(collected) })
			job.Done().Wait()
			if job.State() != StateDone {
				t.Errorf("state = %v (%s), want DONE", job.State(), job.Reason())
			}
		}()
		sim.Sleep(time.Second) // its processes have exited
		finished := false
		for i := 0; i < 50 && !finished; i++ {
			runtime.GC()
			select {
			case <-collected:
				finished = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !finished {
			t.Error("a finished, retired job is still reachable: its wall-limit timer holds it")
		}
		fired := sim.TimersFired()
		sim.Sleep(2 * time.Minute) // across the instant the limit would have struck
		if got := sim.TimersFired() - fired; got != 1 {
			t.Errorf("%d timers fired across the dead job's limit instant, want 1 (this sleep)", got)
		}

		start := sim.Now()
		job, err := m.Submit(JobSpec{Executable: "overrun", Count: 2, TimeLimit: 5 * time.Second})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		job.Done().Wait()
		ran := sim.Now() - start // the limit runs from launch, a fork after Submit
		if job.State() != StateFailed || job.Reason() != "wall-time limit exceeded" || ran < 5*time.Second || ran > 5*time.Second+10*time.Millisecond {
			t.Errorf("overrunning job: %v (%s) at +%v, want FAILED at its 5s limit", job.State(), job.Reason(), ran)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if st := m.Stats(); st.Done != 1 || st.Failed != 1 {
		t.Errorf("stats = %+v, want 1 done, 1 failed", st)
	}
}
