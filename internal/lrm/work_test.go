package lrm

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// stepWork is Proc.Work as it was before it became one wait: a loop that
// sleeps a step at a time and looks at the job between steps. It is the
// reference the one-wait implementation is compared against, and exists
// nowhere else.
func stepWork(p *Proc, total, step time.Duration) error {
	if step <= 0 {
		step = total
	}
	for total > 0 {
		if _, err := p.running(); err != nil {
			return err
		}
		d := step
		if d > total {
			d = total
		}
		if err := p.Sleep(d); err != nil {
			return err
		}
		total -= d
	}
	return nil
}

// workOutcome is everything a schedule lets an observer see of a job.
type workOutcome struct {
	Ends   []string // per rank: when its Work call returned, and what
	States []string // the job's state stream, each with its instant
	Final  string   // terminal state and reason
	Ops    []string // what each control operation answered
}

const ms = time.Millisecond

// runWorkSchedule draws one schedule from seed — a job of one to three
// processes calling work(total, step), a start-up stretched by SetSlowFactor,
// perhaps a wall limit, perhaps a process that fails, and a sequence of
// suspend / resume / cancel calls — runs it, and reports the outcome. Every
// draw is made before the run, so two calls with one seed differ only in work.
//
// Instants never tie: total, step, the limit and the start-up are whole
// milliseconds, while the n-th control call comes a whole number of
// milliseconds plus n·7919 ns after the one before, so no two of them, and
// none of them and a step boundary counted from the start of work or from a
// resume, are a whole number of milliseconds apart (twelve such offsets sum
// to 0.62 ms). What a tie does is decided by timer insertion order, which is
// the one thing the two implementations do not share.
func runWorkSchedule(seed int64, work func(p *Proc, total, step time.Duration) error) workOutcome {
	rng := rand.New(rand.NewSource(seed))
	total := time.Duration(1+rng.Intn(40_000)) * ms
	var step time.Duration
	switch k := rng.Intn(10); {
	case k < 2:
		step = -time.Duration(rng.Intn(2)) * time.Second // 0 or negative: one step
	case k < 4:
		step = total + time.Duration(1+rng.Intn(5000))*ms
	case k < 7:
		step = time.Second
	default:
		step = time.Duration(1+rng.Int63n(int64(total/ms))) * ms
	}
	count := 1 + rng.Intn(3)
	slow := float64(1 + rng.Intn(3))
	spec := JobSpec{Executable: "work", Count: count}
	if rng.Intn(3) == 0 {
		spec.TimeLimit = (total / 2).Truncate(ms) + time.Duration(rng.Int63n(int64(2*total/ms)))*ms
	}
	failAt := time.Duration(-1)
	if count > 1 && rng.Intn(5) == 0 {
		failAt = time.Duration(rng.Int63n(int64(total/ms)))*ms + 4999*time.Nanosecond
	}
	type op struct {
		after time.Duration
		verb  byte
	}
	const verbs = "SSSSSRRRRRC" // suspend, resume, and now and then cancel
	ops := make([]op, rng.Intn(12))
	for i := range ops {
		ops[i].after = time.Duration(rng.Int63n(int64(3*total/ms)/int64(len(ops))+2))*ms + time.Duration(i+1)*7919
		ops[i].verb = verbs[rng.Intn(len(verbs))]
	}

	sim := vtime.NewSeeded(seed)
	host := transport.New(sim, transport.UniformLatency(ms)).AddHost("origin")
	m := NewMachine(host, 8, Config{Mode: Fork})
	m.SetSlowFactor(slow)
	out := workOutcome{Ends: make([]string, count)}
	m.RegisterExecutable("work", func(p *Proc) error {
		if p.Rank == count-1 && failAt >= 0 {
			if err := p.Sleep(failAt); err != nil {
				return err
			}
			return errors.New("boom")
		}
		err := work(p, total, step)
		out.Ends[p.Rank] = fmt.Sprintf("%v at %v", err, sim.Now())
		return err
	})
	err := sim.Run("driver", func() {
		job, err := m.Submit(spec)
		if err != nil {
			out.Final = err.Error()
			return
		}
		watched := vtime.NewEvent(sim, "watched")
		sim.Go("watcher", func() {
			defer watched.Set()
			for {
				s, ok := job.Events().Recv()
				if !ok {
					return
				}
				out.States = append(out.States, fmt.Sprintf("%v at %v", s, sim.Now()))
			}
		})
		for _, o := range ops {
			sim.Sleep(o.after)
			var err error
			switch o.verb {
			case 'S':
				err = job.Suspend()
			case 'R':
				err = job.Resume()
			default:
				job.Cancel()
			}
			out.Ops = append(out.Ops, fmt.Sprintf("%c: %v at %v", o.verb, err, sim.Now()))
		}
		if job.State() == StateSuspended {
			if err := job.Resume(); err != nil {
				out.Ops = append(out.Ops, err.Error())
			}
		}
		job.Done().Wait()
		watched.Wait()
		sim.Sleep(2 * time.Minute) // every process has returned
		out.Final = fmt.Sprintf("%v (%s)", job.State(), job.Reason())
	})
	if err != nil {
		out.Final = err.Error()
	}
	return out
}

// Work as one wait and Work as a step loop are the same function of the
// schedule: every process returns the same error at the same nanosecond, and
// the job goes through the same states at the same instants.
func TestWorkMatchesStepLoop(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 200
	}
	var suspended, killed, clean int
	for seed := int64(1); seed <= seeds; seed++ {
		got := runWorkSchedule(seed, (*Proc).Work)
		want := runWorkSchedule(seed, stepWork)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d:\n one wait: %+v\nstep loop: %+v", seed, got, want)
		}
		switch {
		case len(want.States) > 2 && want.States[1][:3] == "SUS":
			suspended++
		case want.Final[:4] != "DONE":
			killed++
		default:
			clean++
		}
	}
	// The draw must keep exercising all three: work that was suspended on the
	// way, work that was killed, and work that ran through.
	if suspended < int(seeds/5) || killed < int(seeds/10) || clean < int(seeds/10) {
		t.Errorf("%d schedules: %d suspended, %d killed unsuspended, %d undisturbed — the draw has lost its mix", seeds, suspended, killed, clean)
	}
}

// Thirty steps are one timer and at most two goroutine switches a process:
// the wake at the end, and the switch away from whoever fired it.
func TestWorkIsOneWait(t *testing.T) {
	sim, m := newMachine(8, Fork)
	registerWork(m, 30*time.Second)
	const count = 4
	err := sim.Run("main", func() {
		job, err := m.Submit(JobSpec{Executable: "work", Count: count})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		sim.Sleep(time.Second) // past start-up: every process is in Work
		timers, handoffs := sim.TimersFired(), sim.Handoffs()
		job.Done().Wait()
		if got := sim.Now(); got != DefaultCosts.Fork+DefaultCosts.ProcStartup+30*time.Second {
			t.Errorf("finished at %v", got)
		}
		if got := sim.TimersFired() - timers; got != count {
			t.Errorf("%d timers fired while %d processes worked 30 s in 1 s steps, want one each", got, count)
		}
		if got := sim.Handoffs() - handoffs; got > 2*count {
			t.Errorf("%d hand-offs while %d processes worked, want at most two each", got, count)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// A process woken by a suspension finishes the step it is in before it
// pauses, so a suspension that is lifted within the step costs no virtual
// time — however many times that happens — and one that is not costs what
// is left of it after the step.
func TestSuspendInsideOneStepIsFree(t *testing.T) {
	sim, m := newMachine(8, Fork)
	var end time.Duration
	m.RegisterExecutable("work", func(p *Proc) error {
		err := p.Work(10*time.Second, 4*time.Second)
		end = sim.Now()
		return err
	})
	err := sim.Run("main", func() {
		job, err := m.Submit(JobSpec{Executable: "work", Count: 1})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		start := DefaultCosts.Fork + DefaultCosts.ProcStartup
		flip := func(at time.Duration, f func() error) {
			sim.SleepUntil(start + at)
			if err := f(); err != nil {
				t.Errorf("at +%v: %v", at, err)
			}
		}
		// Twice inside the first step (0–4 s), free.
		flip(1*time.Second, job.Suspend)
		flip(2*time.Second, job.Resume)
		flip(2500*ms, job.Suspend)
		flip(3*time.Second, job.Resume)
		// Across the end of the second (4–8 s): suspended at 7 s, the process
		// pauses at 8 s and stays paused until 9.5 s, which costs 1.5 s.
		flip(7*time.Second, job.Suspend)
		flip(9500*ms, job.Resume)
		job.Done().Wait()
		if want := start + 10*time.Second + 1500*ms; end != want {
			t.Errorf("Work returned at %v, want %v: only the 1.5 s the process sat paused are lost", end, want)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// A kill reaches a working process at once, not at its next step boundary,
// whether it is cancelled, overruns its limit or loses a sibling — and also
// when the kill finds it finishing a step on its way into a suspension, or
// paused in one.
func TestKillInterruptsWorkAtTheKillInstant(t *testing.T) {
	start := DefaultCosts.Fork + DefaultCosts.ProcStartup
	cases := []struct {
		name  string
		spec  JobSpec
		drive func(sim *vtime.Sim, job *Job)
		want  time.Duration // after start
	}{
		{"cancel", JobSpec{Count: 2}, func(sim *vtime.Sim, job *Job) {
			sim.SleepUntil(start + 90*time.Second + 7*ms)
			job.Cancel()
		}, 90*time.Second + 7*ms},
		{"wall limit", JobSpec{Count: 2, TimeLimit: 45*time.Second + 3*ms}, func(*vtime.Sim, *Job) {},
			45*time.Second + 3*ms - DefaultCosts.ProcStartup},
		{"sibling fails", JobSpec{Count: 3, Env: map[string]string{"fail": "2"}}, func(*vtime.Sim, *Job) {},
			20*time.Second + 11*ms},
		{"cancel on the way into a suspension", JobSpec{Count: 2}, func(sim *vtime.Sim, job *Job) {
			sim.SleepUntil(start + 61*time.Second)
			job.Suspend()
			sim.Sleep(13 * ms) // the processes are finishing their second minute
			job.Cancel()
		}, 61*time.Second + 13*ms},
		{"cancel while suspended", JobSpec{Count: 2}, func(sim *vtime.Sim, job *Job) {
			sim.SleepUntil(start + 61*time.Second)
			job.Suspend()
			sim.Sleep(5 * time.Minute) // paused since the two-minute mark
			job.Cancel()
		}, 6*time.Minute + time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, m := newMachine(8, Fork)
			var ends []time.Duration
			m.RegisterExecutable("work", func(p *Proc) error {
				if p.Getenv("fail") == fmt.Sprint(p.Rank) {
					p.Sleep(20*time.Second + 11*ms)
					return errors.New("boom")
				}
				err := p.Work(time.Hour, time.Minute)
				if err != ErrKilled {
					t.Errorf("rank %d: Work returned %v, want ErrKilled", p.Rank, err)
				}
				ends = append(ends, sim.Now()-start)
				return err
			})
			tc.spec.Executable = "work"
			err := sim.Run("main", func() {
				job, err := m.Submit(tc.spec)
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				tc.drive(sim, job)
				job.Done().Wait()
				sim.Sleep(time.Second) // the processes return in the kill instant
			})
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			// A process still waiting would be abandoned as a daemon, not
			// reported: the count is what says the job has quiesced.
			if len(ends) != 2 {
				t.Fatalf("%d working processes returned, want 2", len(ends))
			}
			for _, at := range ends {
				if at != tc.want {
					t.Errorf("Work returned %v after it started, want %v: the kill instant", at, tc.want)
				}
			}
		})
	}
}
