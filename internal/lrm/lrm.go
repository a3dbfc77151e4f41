// Package lrm implements local resource managers: the per-machine
// schedulers (LoadLeveler, PBS, NQE in the paper's related work) that GRAM
// submits jobs to.
//
// A Machine runs in one of two modes. Fork mode starts processes
// immediately — the configuration the paper's microbenchmarks used "to
// eliminate any source of queuing delay". Batch mode runs a FCFS queue
// with EASY backfill and wall-time limits, used by the application-scale
// experiments. Machines also keep an advance-reservation table for the
// co-reservation extension (the paper's §5 future work).
//
// An application's compute time is one kernel event, not a tick per step.
// [Proc.Work] waits once, for the whole of its total, on the interrupt event
// its [Job] sets when the job's processes must look up: when the job is
// suspended, or reaches a terminal state — cancelled, killed at its wall
// limit, failed by a sibling. Killed, the process returns at the kill
// instant. Suspended, it finishes the step it is in — progress is accounted
// at step boundaries, as if it had slept step by step — then pauses, and on
// resume waits out the remainder on a fresh interrupt event. A job's signals
// (kill, done, the state stream, the first interrupt event) are embedded in
// it, so a job that is never suspended is one allocation and its id.
package lrm

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"cogrid/internal/metrics"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// Errors returned by machine operations.
var (
	ErrUnknownExecutable = errors.New("lrm: unknown executable")
	ErrBadCount          = errors.New("lrm: process count must be positive")
	ErrTooLarge          = errors.New("lrm: request exceeds machine size")
	ErrMachineDown       = errors.New("lrm: machine is down")
	ErrKilled            = errors.New("lrm: process killed")
	ErrNoSuchJob         = errors.New("lrm: no such job")
)

// Mode selects the scheduling discipline.
type Mode int

const (
	// Fork starts processes immediately, with no queueing.
	Fork Mode = iota
	// Batch queues jobs FCFS with EASY backfill.
	Batch
)

func (m Mode) String() string {
	if m == Fork {
		return "fork"
	}
	return "batch"
}

// JobState is the lifecycle state of a job, mirroring GRAM's state machine.
type JobState int

const (
	// StatePending means queued, not yet running.
	StatePending JobState = iota
	// StateActive means processes are running.
	StateActive
	// StateDone means all processes exited successfully.
	StateDone
	// StateFailed means a process failed or a limit was exceeded.
	StateFailed
	// StateCancelled means the job was killed on request.
	StateCancelled
	// StateSuspended means the job's processes are paused.
	StateSuspended
)

func (s JobState) String() string {
	switch s {
	case StatePending:
		return "PENDING"
	case StateActive:
		return "ACTIVE"
	case StateDone:
		return "DONE"
	case StateFailed:
		return "FAILED"
	case StateCancelled:
		return "CANCELLED"
	case StateSuspended:
		return "SUSPENDED"
	}
	return "INVALID"
}

// Terminal reports whether no further transitions can occur.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Costs models the local overheads of job management.
type Costs struct {
	// Fork is the per-job cost of creating processes (Figure 3: 0.001 s).
	Fork time.Duration
	// ProcStartup is the time a created process spends loading and
	// initializing before application code runs. Together with the GRAM
	// protocol costs this reproduces the ~2 s single-subjob latency of
	// Figure 4.
	ProcStartup time.Duration
}

// DefaultCosts is the Figure 3 / Figure 4 calibration.
var DefaultCosts = Costs{Fork: time.Millisecond, ProcStartup: 750 * time.Millisecond}

// ExecFunc is a simulated application executable. It runs once per
// process; a non-nil error marks the process (and hence the job) failed.
type ExecFunc func(p *Proc) error

// Machine is a parallel computer under the control of one local resource
// manager.
type Machine struct {
	sim        *vtime.Sim
	host       *transport.Host
	name       string
	processors int
	mode       Mode
	costs      Costs
	retire     bool

	// Metric handles are resolved once, on the first launch, and cached:
	// the registry lookup and the per-machine gauge-name concatenation used
	// to run once per job, which is measurable garbage at 10⁶ jobs.
	metricsOnce sync.Once
	queueWait   *metrics.Histogram
	service     *metrics.Histogram
	busy        *metrics.Gauge

	mu            sync.Mutex
	execs         map[string]ExecFunc
	jobs          map[string]*Job
	nextJobID     int
	freeProcs     int
	queue         []*Job                 // batch: pending jobs, FCFS order
	running       map[*Job]time.Duration // batch: active job -> expected end
	releases      releaseIndex           // batch: running releases, ascending
	relScratch    []releaseEntry
	estScratch    []relPoint
	launchScratch []*Job // batch: what one scheduling pass starts
	slowFactor    float64
	down          bool
	doneJobs      int64
	failedJobs    int64

	reservations map[string]*Reservation
	nextResID    int
}

// backfillDepth bounds how many queued jobs one scheduling pass
// considers for backfill behind a blocked head. An unbounded scan is
// O(queue²) across a draining backlog, which a 10⁵-job queue cannot
// afford; candidates past the window simply wait for a later pass.
const backfillDepth = 256

// Config carries optional machine settings.
type Config struct {
	Mode  Mode
	Costs Costs // zero value replaced by DefaultCosts
	// RetireTerminal drops jobs from the machine's job table once they
	// reach a terminal state, so a long simulation's memory stays
	// proportional to live work rather than total history. Job() lookups
	// for retired jobs return ErrNoSuchJob; Stats() keeps the counts.
	RetireTerminal bool
}

// NewMachine creates a machine with the given processor count on host.
func NewMachine(host *transport.Host, processors int, cfg Config) *Machine {
	costs := cfg.Costs
	if costs == (Costs{}) {
		costs = DefaultCosts
	}
	return &Machine{
		sim:          host.Network().Sim(),
		host:         host,
		name:         host.Name(),
		processors:   processors,
		mode:         cfg.Mode,
		costs:        costs,
		retire:       cfg.RetireTerminal,
		execs:        make(map[string]ExecFunc),
		jobs:         make(map[string]*Job),
		freeProcs:    processors,
		slowFactor:   1,
		reservations: make(map[string]*Reservation),
	}
}

// metricHandles resolves the machine's metric handles on first use. Both
// registries are nil-safe, so the cached handles may legitimately be nil.
func (m *Machine) metricHandles() {
	m.metricsOnce.Do(func() {
		net := m.host.Network()
		m.queueWait = net.Hists().H("lrm.queue.wait")
		m.service = net.Hists().H("lrm.job.service")
		m.busy = net.Gauges().G("lrm.busy@" + m.host.Name())
	})
}

// Stats is a machine's cumulative job accounting.
type Stats struct {
	Done   int64 // jobs that reached StateDone
	Failed int64 // jobs that reached StateFailed or StateCancelled
}

// Stats returns cumulative terminal-job counts. Unlike the jobs table,
// these survive RetireTerminal.
func (m *Machine) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Done: m.doneJobs, Failed: m.failedJobs}
}

// Name returns the machine (host) name.
func (m *Machine) Name() string { return m.name }

// Host returns the machine's network host.
func (m *Machine) Host() *transport.Host { return m.host }

// Processors returns the machine size.
func (m *Machine) Processors() int { return m.processors }

// Mode returns the scheduling mode.
func (m *Machine) Mode() Mode { return m.mode }

// RegisterExecutable installs a named application executable.
func (m *Machine) RegisterExecutable(name string, fn ExecFunc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.execs[name] = fn
}

// SetSlowFactor scales process startup time; the "system was overloaded
// with other work" failure mode from the paper's Section 2 scenario.
func (m *Machine) SetSlowFactor(f float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f < 1 {
		f = 1
	}
	m.slowFactor = f
}

// SetDown marks the machine's resource manager down (submissions fail) or
// back up.
func (m *Machine) SetDown(down bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.down = down
}

// LiveJobs counts jobs that have not reached a terminal state — the
// machine-side ground truth a chaos run checks against zero after
// quiescence: any survivor is a leaked allocation whose cancel never
// landed. Job states are read outside m.mu (each Job has its own lock,
// taken by completion paths that also take m.mu), so the count is a
// snapshot, exact once the machine is quiescent.
func (m *Machine) LiveJobs() int {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	live := 0
	for _, j := range jobs {
		if !j.State().Terminal() {
			live++
		}
	}
	return live
}

// FreeProcessors returns the batch scheduler's idle-processor count.
// Fork-mode machines do not meter processors and always report the full
// machine size. Once a batch machine is quiescent — no live jobs, no held
// reservations — the count must equal Processors(); any other value means
// the allocate/release accounting double-counted somewhere, which is the
// processor-conservation invariant the simulation-testing harness checks.
func (m *Machine) FreeProcessors() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.mode == Fork {
		return m.processors
	}
	return m.freeProcs
}

// JobSpec describes one job submission.
type JobSpec struct {
	Executable string
	Count      int
	Env        map[string]string
	// TimeLimit is the batch wall-time limit; the job is killed when it
	// expires. Zero means unlimited.
	TimeLimit time.Duration
	// ReservationID binds the job to an advance reservation.
	ReservationID string
}

// Job is a submitted job. It owns its signals by value — Submit makes them
// usable in place, so they cost no allocation of their own — and must not be
// copied.
type Job struct {
	machine *Machine
	id      string
	spec    JobSpec

	mu        sync.Mutex
	state     JobState
	reason    string
	liveProcs int
	failed    bool
	released  bool

	kill     vtime.Event
	done     vtime.Event
	events   vtime.Chan[JobState]
	startRes *Reservation
	queuedAt time.Duration // when the job was accepted by Submit
	startAt  time.Duration // when the job became active
	limit    *vtime.Timer  // wall-limit timer while the job runs, nil if none

	// interrupt is what the job's processes wait on while all they do is let
	// time pass, computing in Work or paused by a suspension: it is set when
	// they must look up, which is when the job is suspended, resumed or
	// reaches a terminal state. Suspend and Resume leave a fresh one behind;
	// the first is firstInterrupt, so only a suspension allocates.
	interrupt      *vtime.Event
	firstInterrupt vtime.Event
}

// signalName names one of a job's embedded events. A constant of this type
// is an interface value without an allocation.
type signalName string

func (n signalName) String() string { return string(n) }

// jobEvents names a job's event stream, when a deadlock report asks.
type jobEvents Job

func (j *jobEvents) String() string { return "job-events:" + j.id }

// ID returns the machine-unique job identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the submitted specification.
func (j *Job) Spec() JobSpec { return j.spec }

// State returns the current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Reason describes why the job reached a terminal state.
func (j *Job) Reason() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.reason
}

// Events returns the job's state-transition stream. It carries every
// transition in order and is closed after the terminal state is delivered.
// There must be at most one consumer.
func (j *Job) Events() *vtime.Chan[JobState] { return &j.events }

// Done returns an event set when the job reaches a terminal state.
func (j *Job) Done() *vtime.Event { return &j.done }

// KillEvent returns the event processes watch for cancellation.
func (j *Job) KillEvent() *vtime.Event { return &j.kill }

// setState transitions the job, delivering the event. Terminal states
// close the event stream, interrupt the job's processes and set done.
func (j *Job) setState(s JobState, reason string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = s
	if reason != "" {
		j.reason = reason
	}
	interrupt := j.interrupt
	j.mu.Unlock()
	j.events.TrySend(s)
	if s.Terminal() {
		j.events.Close()
		// Processes computing or paused wake here and find the kill.
		interrupt.Set()
		j.kill.Set()
		j.done.Set()
	}
}

// Suspend pauses the job's processes: interruptible work stops consuming
// progress until Resume. Only an active job can be suspended.
func (j *Job) Suspend() error {
	return j.turn(StateActive, StateSuspended, "suspend", "resume")
}

// Resume continues a suspended job.
func (j *Job) Resume() error {
	return j.turn(StateSuspended, StateActive, "resume", "interrupt")
}

// turn moves the job between running and suspended and interrupts its
// processes, which from then on wait on a new event, named by what will set
// it next.
func (j *Job) turn(from, to JobState, verb, next string) error {
	j.mu.Lock()
	if j.state != from {
		state := j.state
		j.mu.Unlock()
		return fmt.Errorf("lrm: cannot %s job in state %v", verb, state)
	}
	interrupt := j.interrupt
	j.interrupt = vtime.NewEvent(j.machine.sim, next)
	j.mu.Unlock()
	j.setState(to, "")
	interrupt.Set()
	return nil
}

// phase returns the event that interrupts the job's processes next and
// whether the job is suspended: whether that event will mean resume or kill,
// or suspend or kill.
func (j *Job) phase() (interrupt *vtime.Event, suspended bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.interrupt, j.state == StateSuspended
}

// Cancel kills the job. It is the collective "kill" control operation of
// Section 3.4 applied to one subjob.
func (j *Job) Cancel() {
	j.machine.finishJob(j, StateCancelled, "cancelled by request")
}

// Submit submits a job. In fork mode it returns once processes are
// created; in batch mode it returns with the job queued.
func (m *Machine) Submit(spec JobSpec) (*Job, error) {
	m.mu.Lock()
	if m.down {
		m.mu.Unlock()
		return nil, ErrMachineDown
	}
	if spec.Count <= 0 {
		m.mu.Unlock()
		return nil, ErrBadCount
	}
	if _, ok := m.execs[spec.Executable]; !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownExecutable, spec.Executable)
	}
	if m.mode == Batch && spec.Count > m.processors {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, spec.Count, m.processors)
	}
	var res *Reservation
	if spec.ReservationID != "" {
		res = m.reservations[spec.ReservationID]
		if res == nil {
			m.mu.Unlock()
			return nil, fmt.Errorf("lrm: unknown reservation %q", spec.ReservationID)
		}
		if res.Count < spec.Count {
			m.mu.Unlock()
			return nil, fmt.Errorf("lrm: reservation %q holds %d processors, job needs %d",
				spec.ReservationID, res.Count, spec.Count)
		}
	}
	m.nextJobID++
	var digits [20]byte // on the stack: the id is the one allocation
	job := &Job{
		machine:  m,
		id:       m.name + "/job" + string(strconv.AppendInt(digits[:0], int64(m.nextJobID), 10)),
		spec:     spec,
		state:    StatePending,
		startRes: res,
		queuedAt: m.sim.Now(),
	}
	job.kill.Init(m.sim, signalName("kill"))
	job.done.Init(m.sim, signalName("done"))
	job.events.Init(m.sim, (*jobEvents)(job), 16)
	job.firstInterrupt.Init(m.sim, signalName("interrupt"))
	job.interrupt = &job.firstInterrupt
	m.jobs[job.id] = job
	m.mu.Unlock()

	switch {
	case res != nil:
		m.sim.GoDaemon("reserved-start:"+job.id, func() { m.startReserved(job, res) })
	case m.mode == Fork:
		m.sim.Sleep(m.costs.Fork)
		m.launch(job)
	default:
		m.mu.Lock()
		m.queue = append(m.queue, job)
		m.mu.Unlock()
		m.schedule()
	}
	return job, nil
}

// Job returns a submitted job by ID.
func (m *Machine) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNoSuchJob
	}
	return j, nil
}

// launch transitions a job to Active and spawns its processes. In batch
// mode the caller has already debited freeProcs.
func (m *Machine) launch(job *Job) {
	m.mu.Lock()
	fn := m.execs[job.spec.Executable]
	slow := m.slowFactor
	m.mu.Unlock()

	job.mu.Lock()
	if job.state.Terminal() { // cancelled while queued
		job.mu.Unlock()
		return
	}
	job.liveProcs = job.spec.Count
	job.startAt = m.sim.Now()
	queuedAt := job.queuedAt
	if job.spec.TimeLimit > 0 {
		// finishJob never blocks on kernel primitives, so wall-limit
		// enforcement is a passive timer instead of a goroutine per running
		// job; finishJob stops it, so a job that ends early leaves nothing
		// in the timer queue that holds it.
		job.limit = m.sim.AfterFuncPassive(job.spec.TimeLimit, func() {
			m.finishJob(job, StateFailed, "wall-time limit exceeded")
		})
	}
	job.mu.Unlock()
	m.metricHandles()
	// Queue service wait: accept-to-launch latency. In fork mode this is
	// the fork cost; in batch mode it includes FCFS/backfill queueing.
	m.queueWait.Record(int64(m.sim.Now() - queuedAt))
	// Per-machine utilization gauge: processors busy running application
	// processes. Decremented symmetrically when finishJob releases them.
	m.busy.Add(float64(job.spec.Count))
	job.setState(StateActive, "")

	startup := time.Duration(float64(m.costs.ProcStartup) * slow)
	for rank := 0; rank < job.spec.Count; rank++ {
		p := &Proc{
			sim:     m.sim,
			host:    m.host,
			machine: m,
			job:     job,
			Rank:    rank,
			Count:   job.spec.Count,
			Env:     job.spec.Env,
		}
		// Named by the job id alone: a per-rank name would be formatted for
		// every process and read only if the run deadlocks.
		m.sim.GoDaemon(job.id, func() {
			// Process load/init time; interruptible by kill.
			if job.kill.WaitTimeout(startup) {
				m.procExit(job, ErrKilled)
				return
			}
			m.procExit(job, fn(p))
		})
	}
}

// procExit accounts for one process finishing.
func (m *Machine) procExit(job *Job, err error) {
	job.mu.Lock()
	job.liveProcs--
	if err != nil && err != ErrKilled {
		job.failed = true
		if job.reason == "" {
			job.reason = err.Error()
		}
	}
	last := job.liveProcs == 0
	failed := job.failed
	reason := job.reason
	job.mu.Unlock()
	if err != nil && err != ErrKilled {
		// One process failing fails the job and kills its siblings —
		// LoadLeveler/LSF semantics at the single-resource level.
		m.finishJob(job, StateFailed, reason)
		return
	}
	if last {
		if failed {
			m.finishJob(job, StateFailed, reason)
		} else {
			m.finishJob(job, StateDone, "")
		}
	}
}

// finishJob drives a job to a terminal state once, releasing processors.
func (m *Machine) finishJob(job *Job, state JobState, reason string) {
	job.mu.Lock()
	if job.state.Terminal() {
		job.mu.Unlock()
		return
	}
	wasPending := job.state == StatePending
	release := !job.released && !wasPending
	job.released = true
	startAt := job.startAt
	if job.limit != nil {
		job.limit.Stop()
		job.limit = nil
	}
	job.mu.Unlock()

	if release {
		m.metricHandles()
		// Launch-to-terminal service time of jobs that actually ran.
		m.service.Record(int64(m.sim.Now() - startAt))
	}

	if wasPending {
		m.mu.Lock()
		for i, q := range m.queue {
			if q == job {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
	}
	job.setState(state, reason)
	if release {
		m.busy.Add(-float64(job.spec.Count))
	}
	m.mu.Lock()
	if state == StateDone {
		m.doneJobs++
	} else {
		m.failedJobs++
	}
	if m.retire {
		delete(m.jobs, job.id)
	}
	m.mu.Unlock()
	if release && m.mode == Batch && job.startRes == nil {
		m.mu.Lock()
		m.freeProcs += job.spec.Count
		// The release index entry goes stale here and is dropped lazily
		// the next time it surfaces during an ascent.
		delete(m.running, job)
		m.mu.Unlock()
		m.schedule()
	}
}
