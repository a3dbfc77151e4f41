package lrm

import (
	"time"

	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// Proc is the execution context handed to a simulated application
// process: its identity within the job, its environment, and interruptible
// blocking primitives that observe job cancellation.
type Proc struct {
	sim     *vtime.Sim
	host    *transport.Host
	machine *Machine
	job     *Job

	// Rank is this process's rank within its job (0-based).
	Rank int
	// Count is the number of processes in the job.
	Count int
	// Env carries submission environment values (e.g. the DUROC contact).
	Env map[string]string
}

// Sim returns the kernel.
func (p *Proc) Sim() *vtime.Sim { return p.sim }

// Host returns the machine's network host, for dialing out.
func (p *Proc) Host() *transport.Host { return p.host }

// JobID returns the local job identifier.
func (p *Proc) JobID() string { return p.job.id }

// Getenv returns an environment value, or "" if unset.
func (p *Proc) Getenv(key string) string {
	if p.Env == nil {
		return ""
	}
	return p.Env[key]
}

// Killed reports whether the job has been killed.
func (p *Proc) Killed() bool { return p.job.kill.IsSet() }

// KillEvent returns the job's kill event for custom waits.
func (p *Proc) KillEvent() *vtime.Event { return &p.job.kill }

// Sleep blocks for d of virtual time, returning ErrKilled early if the job
// is killed.
func (p *Proc) Sleep(d time.Duration) error {
	if p.job.kill.WaitTimeout(d) {
		return ErrKilled
	}
	return nil
}

// Suspended reports whether the job is currently suspended.
func (p *Proc) Suspended() bool {
	_, suspended := p.job.phase()
	return suspended
}

// PauseWhileSuspended blocks while the job is suspended, returning
// ErrKilled if it is killed in the meantime.
func (p *Proc) PauseWhileSuspended() error {
	_, err := p.running()
	return err
}

// running blocks while the job is suspended and returns the event that will
// interrupt the running job next, or ErrKilled if there is nothing left to
// interrupt.
func (p *Proc) running() (*vtime.Event, error) {
	for {
		interrupt, suspended := p.job.phase()
		if !suspended {
			if p.Killed() {
				return nil, ErrKilled
			}
			return interrupt, nil
		}
		interrupt.Wait()
	}
}

// Work simulates total of computation that can be interrupted. It returns
// ErrKilled at the instant the job is killed, and pauses while the job is
// suspended: suspended time does not count as progress. Progress is
// accounted in steps — a process notices a suspension at the end of the step
// it is in, not in the middle (one that falls exactly on a step boundary
// takes effect there), so a suspension lifted within the step costs nothing.
// A step of zero or less means one step of total.
//
// The steps are accounting, not events: an undisturbed process waits once,
// for the whole of total, on the event its job sets when it is suspended or
// reaches a terminal state. Only a suspension makes it wake in between, to
// finish its step and pause.
func (p *Proc) Work(total, step time.Duration) error {
	if step <= 0 {
		step = total
	}
	for total > 0 {
		interrupt, err := p.running()
		if err != nil {
			return err
		}
		start := p.sim.Now()
		if !interrupt.WaitTimeout(total) {
			return nil
		}
		// Interrupted. By a kill, and the Sleep below says so at once; by a
		// suspension, lifted since or not, and the process first finishes the
		// step it is in, of which the last may be short.
		done := p.sim.Now() - start
		rest := min((step-done%step)%step, total-done)
		if err := p.Sleep(rest); err != nil {
			return err
		}
		total -= done + rest
	}
	return nil
}
