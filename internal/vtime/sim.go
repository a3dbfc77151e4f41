// Package vtime implements a deterministic discrete-event virtual-time
// kernel for simulating distributed systems.
//
// Simulated work comes in two shapes. A process ([Sim.Go], [Sim.GoDaemon])
// is code that blocks in the middle of a function — on [Sim.Sleep], [Chan]
// operations, [WaitGroup], [Event] — and so needs a stack: it runs on a
// goroutine the kernel owns and recycles. A [Task] is a state machine whose
// every wait is a timer or an arrival: a struct embedded in its owner, whose
// step runs to completion and must not block. For a timer it is armed at a
// virtual instant ([Task.At]) or made ready now ([Task.Ready]); for an
// arrival it is registered as a channel's task waiter
// ([Chan.ReadyOnArrival]) and readied when the channel next has a value or
// closes, where a blocked receiver would have been woken — its step then
// receives without blocking ([Chan.TryRecv], or a zero [Chan.RecvTimeout])
// and registers again. [Sim.AfterFuncPassive] runs a closure the same way.
// All blocking inside the simulation must go through kernel primitives so
// the kernel can tell when nothing is runnable; virtual time advances only
// then, by a jump to the earliest pending timer. This makes timing exact (no
// wall-clock jitter) and fast (simulated seconds cost microseconds of real
// time).
//
// Execution is serialized by a run token: one process at a time, in FIFO
// wake order, so two processes woken at the same virtual instant never
// race — the same seed replays the same interleaving even under the race
// detector. There is no scheduler thread. A process that blocks or exits
// gives up the token and is itself the dispatcher until something else can
// run: on its own stack it runs the tasks queued ahead of the next
// process, advances the clock and fires timers one at a time — a sleep or
// timeout wakes its process, a task runs there and then, and whatever it
// woke runs before the next timer is popped — and stops at the first
// process it can grant the token to, which may be itself. A parked
// goroutine resumes only when granted the token.
//
// Timers are kept in a hierarchical timer wheel with a calendar-queue
// overflow level (O(1) amortized push/pop at million-timer scale) and fire
// in exact (time, insertion) order. The original binary heap lives on in
// this package's test files as the reference scheduler: the kernel
// equivalence suite runs every scenario on both and compares the bytes.
//
// The run token is the only lock simulated state needs. Setup — the code
// on the caller's goroutine that builds the world and spawns its first
// processes — owns all of it until [Sim.Wait]: nothing runs before Wait
// grants the token for the first time. From then on every process and task
// runs under the token, and the kernel's channel handoffs order each one
// after the last. Readers on the caller's goroutine come after Wait
// returns, which orders them after the run. So state touched only by
// setup, processes, tasks and those readers needs no mutex and no atomic,
// and the race detector checks the rule. The kernel keeps it too: it takes
// no lock of its own, and a process that blocks or exits is done with the
// Sim when it passes the token on. A process must never block on
// ordinary Go channels or locks: doing so breaks runnable accounting.
//
// If every live non-daemon process is blocked and no timers are pending,
// the simulation has deadlocked: the kernel records a *DeadlockError
// describing each blocked process and terminates the run, and [Sim.Wait]
// returns the error.
package vtime

import (
	"fmt"
	"math/rand"
	"strings"
	"time"
)

// Sim is a discrete-event simulation kernel. Create one with New or
// NewSeeded; a zero Sim is not usable.
type Sim struct {
	now       time.Duration
	seq       uint64 // tiebreaker for timers scheduled at the same instant
	alive     int    // non-daemon processes that have not exited
	started   bool   // at least one non-daemon process was spawned
	completed bool   // all non-daemon processes exited, or deadlock detected
	over      bool   // completed, and the last daemon that was still runnable has had its turn: done is closed
	waited    bool   // Wait has made the first grant of the run token

	// Deterministic cooperative scheduling: at most one simulated process
	// executes at a time, selected in FIFO wake order. cur is the process
	// holding the run token (nil while a dispatcher holds it, see
	// pass, and before Wait); runq holds the processes and
	// tasks that are ready but waiting their turn (runqHead is the pop
	// index, reset when the queue drains). Without this serialization two
	// processes woken at the same virtual instant race, and the winner —
	// hence the entire downstream run — is decided by the Go scheduler
	// instead of the seed. With it, "the calling process" of any blocking
	// primitive is cur, so a process blocks on its own descriptor and
	// allocates nothing.
	cur      *proc
	runq     []runnable
	runqHead int

	timers timerQueue // exactly the pending timers

	blocked   procQueue // every blocked process in block order, for deadlock reports
	freeProcs []*proc   // descriptors of exited processes
	done      chan struct{}
	deadlock  *DeadlockError

	rng *rand.Rand

	stats       KernelStats
	timersFired int64
	batchWhen   time.Duration // virtual instant of the open dispatch batch
	batchCount  int64         // timers dispatched at batchWhen so far

	spawned, handoffs, tasksRun int64
}

// Recorder consumes one non-negative int64 sample. It is the kernel's view
// of a latency histogram: vtime cannot import the metrics package (metrics
// builds on vtime), so callers inject recorders — *metrics.Histogram
// satisfies this interface — via SetStats. Implementations are invoked by
// whoever holds the run token, in the middle of a dispatch, and therefore
// must not block or call back into the Sim; they need no lock of their own.
type Recorder interface {
	Record(v int64)
}

// KernelStats wires distribution recorders into the kernel hot paths. Any
// nil field disables that probe at zero cost beyond a nil check.
type KernelStats struct {
	// TimerLead receives, for every timer that fires, its virtual lead time
	// in nanoseconds: how far ahead of the then-current clock it was set.
	// Cancelled timers are not recorded.
	TimerLead Recorder
	// DispatchBatch receives, for every virtual instant at which at least
	// one timer fired, the number of timers fired at that instant. The
	// batch closes when the clock moves on or the run completes.
	DispatchBatch Recorder
}

// SetStats installs kernel probes. Call it during setup, before processes
// are spawned; recorders must not block or call back into the Sim (see
// Recorder).
func (s *Sim) SetStats(ks KernelStats) { s.stats = ks }

// TimersFired returns the total number of timer callbacks dispatched so
// far — the kernel's event throughput counter.
func (s *Sim) TimersFired() int64 { return s.timersFired }

// Spawned returns how many processes have been started (Go, GoDaemon and
// fired AfterFunc callbacks).
func (s *Sim) Spawned() int64 { return s.spawned }

// Handoffs returns how many times the run token was granted to a process on
// another goroutine than the one giving it up — the goroutine switches the
// run has cost. A process that dispatches its own wake-up is not one.
func (s *Sim) Handoffs() int64 { return s.handoffs }

// TasksRun returns how many task steps have run (AfterFuncPassive callbacks
// included).
func (s *Sim) TasksRun() int64 { return s.tasksRun }

// DeadlockError reports that every live process was blocked with no pending
// timers. Blocked lists a human-readable description of each blocked
// process at the moment of detection.
type DeadlockError struct {
	Now     time.Duration
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("vtime: deadlock at t=%v: %d blocked: [%s]",
		e.Now, len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// New returns a kernel seeded deterministically (seed 1).
func New() *Sim { return NewSeeded(1) }

// NewSeeded returns a kernel whose random source is seeded with seed (0
// means seed 1).
func NewSeeded(seed int64) *Sim {
	if seed == 0 {
		seed = 1
	}
	return &Sim{
		done:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
		timers: newTimerQueue(),
	}
}

// newTimerQueue builds a kernel's timer store. Nothing outside this
// package's test files assigns it: the equivalence suite swaps in the
// reference heap (export_test.go) to run whole grids on it.
var newTimerQueue = func() timerQueue { return newTimerWheel() }

// Now returns the current virtual time, measured from the start of the
// simulation. The clock moves only while the dispatcher holds the run
// token, so for setup, a process, a task or a reader after Wait the value
// is exact.
func (s *Sim) Now() time.Duration { return s.now }

// Go spawns fn as a simulated process. The simulation is complete when all
// non-daemon processes have returned.
func (s *Sim) Go(name string, fn func()) { s.spawn(name, fn, false) }

// GoDaemon spawns fn as a daemon process. Daemons (servers, background
// monitors) do not keep the simulation alive: once every non-daemon process
// has exited, the simulation completes and any still-blocked daemons are
// abandoned. One that was runnable at that moment still gets its turn, and
// is abandoned when it next tries to wait (see Wait).
func (s *Sim) GoDaemon(name string, fn func()) { s.spawn(name, fn, true) }

// spawn is Go and GoDaemon: ignored once the run has completed, and a
// non-daemon keeps the run alive until it exits.
func (s *Sim) spawn(name string, fn func(), daemon bool) {
	if s.completed {
		return
	}
	if !daemon {
		s.alive++
		s.started = true
	}
	s.startProc(name, fn, daemon)
}

// startProc starts fn as a process on a recycled or fresh descriptor and
// queues it for the run token. A recycled descriptor brings its goroutine,
// parked in procLoop with the stack the previous process grew.
func (s *Sim) startProc(name string, fn func(), daemon bool) {
	var p *proc
	if n := len(s.freeProcs); n > 0 {
		p = s.freeProcs[n-1]
		s.freeProcs = s.freeProcs[:n-1]
	} else {
		p = &proc{grant: make(chan struct{}, 1)}
		p.tm.proc = p
		go s.procLoop(p)
	}
	p.name, p.daemon, p.fn = name, daemon, fn
	s.spawned++
	s.ready(runnable{p: p})
}

// procLoop is the goroutine behind descriptor p: it runs the processes
// spawned on p one after another, each when granted the run token, until
// completion closes the channel or a process takes the goroutine with it.
func (s *Sim) procLoop(p *proc) {
	for range p.grant {
		if !s.runProc(p) {
			return
		}
	}
}

// runProc runs the process spawned on p and reports whether it returned.
// One that leaves by runtime.Goexit or a panic unwinds procLoop too, so its
// descriptor is dropped instead of recycled.
func (s *Sim) runProc(p *proc) (returned bool) {
	defer func() { s.procExit(p, returned) }()
	p.fn()
	return true
}

// procExit retires the process on p, which returned or (returned false)
// left by runtime.Goexit or a panic, and passes the run token on. The
// grant hands every field of the Sim to the next holder, so everything the
// exit does to the descriptor is done first, and after pass this goroutine
// touches nothing of the Sim: procLoop reads only p.grant, which is never
// reassigned.
func (s *Sim) procExit(p *proc, returned bool) {
	p.fn = nil
	if !p.daemon {
		s.alive--
		if s.alive == 0 && !s.completed {
			s.flushBatch()
			s.complete()
		}
	}
	switch {
	case !returned:
		// procLoop unwinds with the process: the descriptor is dropped.
	case s.completed:
		close(p.grant) // nothing spawns any more: procLoop returns
	default:
		// Nothing refers to an exited process (its timeout left the timer
		// queue when its last wait ended), so the descriptor can serve the
		// next spawn — even one made by a task this goroutine is about to
		// run as the dispatcher, whose grant then waits in the channel for
		// procLoop. If the run completes before then, complete closes it.
		s.freeProcs = append(s.freeProcs, p)
	}
	s.pass(p)
}

// complete ends the simulation: from here on a daemon that tries to
// wait is abandoned instead, timers stay unfired and queued steps unrun.
// Daemons already queued for the run token still get their turn, one after
// another, for as long as each exits instead of waiting; Wait returns when
// that is over (end).
func (s *Sim) complete() {
	s.completed = true
	s.releaseFree()
}

// end lets Wait return: the run has completed and the run token has
// nowhere left to go, so nothing it emits is still to come.
func (s *Sim) end() {
	if !s.over {
		s.over = true
		close(s.done)
	}
}

// abandon parks the calling daemon for good: it outlived the run and
// has just tried to wait. The run token stays with it — nothing queued behind
// it is granted — so this is also where the run is over. It does not
// return.
func (s *Sim) abandon() {
	s.end()
	select {}
}

// releaseFree lets the goroutines parked behind free descriptors
// exit; nothing spawns once the simulation has completed.
func (s *Sim) releaseFree() {
	for _, p := range s.freeProcs {
		close(p.grant)
	}
	s.freeProcs = nil
}

// Wait starts the run and blocks the calling (real) goroutine until the
// simulation completes: every non-daemon process has exited, or a deadlock
// was detected. It returns the *DeadlockError in the latter case. Nothing
// spawned or readied during setup runs before Wait: its first call grants
// the run token, in the order everything was queued. Daemons that were
// queued for the token when the run completed run before Wait returns, one
// after another, each until it exits or tries to wait — the first that
// waits keeps the token for good — so whatever a run emits has been
// emitted when Wait returns. At least one non-daemon process must have
// been spawned before calling Wait.
func (s *Sim) Wait() error {
	if !s.started {
		panic("vtime: Wait called before any process was spawned")
	}
	if !s.waited {
		s.waited = true
		s.pass(nil)
	}
	<-s.done
	if s.deadlock != nil {
		return s.deadlock
	}
	return nil
}

// Run spawns fn as a non-daemon process and waits for the simulation to
// complete. It is shorthand for Go followed by Wait.
func (s *Sim) Run(name string, fn func()) error {
	s.Go(name, fn)
	return s.Wait()
}

// Sleep suspends the calling process for d of virtual time. A non-positive
// d returns immediately.
func (s *Sim) Sleep(d time.Duration) {
	if s.completed {
		s.abandon()
	}
	if d <= 0 {
		return
	}
	p := s.caller("Sleep")
	s.block(p, nil, waitSleep, nil, d)
	<-p.grant
}

// SleepUntil suspends the calling process until virtual time t. If t is not
// in the future it returns immediately.
func (s *Sim) SleepUntil(t time.Duration) {
	s.Sleep(t - s.Now())
}

// Timer is a handle to a callback scheduled with AfterFunc or
// AfterFuncPassive. It embeds its timer entry, so the handle is the timer's
// one allocation.
type Timer struct {
	s *Sim
	e timerEntry
}

// Stop cancels the timer. It reports whether the callback was prevented
// from running.
func (t *Timer) Stop() bool { return t.s.cancelTimer(&t.e) }

// Reset reschedules the timer to fire after d from the current virtual
// instant, whether or not it has already fired or been stopped. It reports
// whether the timer was still pending (and was therefore cancelled) at the
// time of the call, with the same meaning as Stop's return value.
func (t *Timer) Reset(d time.Duration) bool {
	was := t.s.cancelTimer(&t.e)
	t.s.pushTimer(&t.e, t.s.now+d)
	return was
}

// AfterFunc schedules fn to run as a new daemon process after d of virtual
// time. fn may use all kernel primitives, including blocking ones.
func (s *Sim) AfterFunc(d time.Duration, fn func()) *Timer {
	return s.afterFunc(d, fn, false)
}

// AfterFuncPassive schedules fn to run after d of virtual time the way a
// task step runs (see Task) instead of as a process: on the stack of
// whichever process is dispatching when the timer fires, with no goroutine
// of its own, which makes passive timers dramatically cheaper at scale.
//
// fn MUST NOT block on kernel primitives (Sleep, Chan Send/Recv, WaitGroup
// or Event waits): it is not a process, so a call that would block panics.
// Non-blocking kernel calls (TrySend, TryRecv, Set, Go, GoDaemon,
// AfterFunc) are allowed. Use AfterFunc for callbacks that may block. A
// panic in fn unwinds through the dispatching process (see Task).
func (s *Sim) AfterFuncPassive(d time.Duration, fn func()) *Timer {
	return s.afterFunc(d, fn, true)
}

func (s *Sim) afterFunc(d time.Duration, fn func(), passive bool) *Timer {
	t := &Timer{s: s, e: timerEntry{fn: fn, passive: passive}}
	s.pushTimer(&t.e, s.now+d)
	return t
}

// Runner is the body of a Task.
type Runner interface {
	// RunTask runs one step to completion. It must not block: a kernel
	// call that would block panics, as in a passive callback.
	RunTask()
}

// Task is a unit of simulated work that needs no stack of its own: each
// step runs to completion on the stack of the process that is dispatching
// (see pass), in exactly the place a process woken at the same moment
// would have run. It is meant to be embedded in its owner, which implements
// Runner; arming and running it allocate nothing. A task is armed, ready or
// waiting for an arrival ([Chan.ReadyOnArrival]) at most once at a time:
// its step may re-arm it, nothing else may until the step has started. The
// kernel does not touch a task once its step has returned, so a step that
// leaves it unarmed may hand the task, and what embeds it, on for reuse.
//
// A step that panics unwinds through that process — an unrelated one, already
// marked blocked or exited — with the run token held for nobody. It must end
// the program: a process body that recovers it leaves the simulation wedged.
type Task struct {
	s       *Sim
	run     Runner
	pending bool // armed or queued; cleared as the step starts
	entry   timerEntry
}

// Init binds the task to its kernel and its body. Call it once, before the
// first At or Ready.
func (t *Task) Init(s *Sim, run Runner) {
	t.s, t.run = s, run
	t.entry.task = t
}

// At arms the task to run at virtual time when, in (time, insertion) order
// with every other timer; a when that has passed means now.
func (t *Task) At(when time.Duration) {
	s := t.s
	t.claim()
	s.pushTimer(&t.entry, max(when, s.now))
}

// Ready queues the task to run at the current instant, behind everything
// already runnable — the run-queue slot a process woken now would take. It
// never runs the step inside the call.
func (t *Task) Ready() {
	t.claim()
	t.s.ready(runnable{e: &t.entry})
}

func (t *Task) claim() {
	if t.pending {
		panic("vtime: task armed while already armed or queued")
	}
	t.pending = true
}

// --- random helpers ---

// RandFloat64 returns a pseudo-random float64 in [0,1).
func (s *Sim) RandFloat64() float64 { return s.rng.Float64() }

// RandIntn returns a pseudo-random int in [0,n).
func (s *Sim) RandIntn(n int) int { return s.rng.Intn(n) }

// RandNorm returns a normally distributed float64 with mean 0 and
// standard deviation 1.
func (s *Sim) RandNorm() float64 { return s.rng.NormFloat64() }

// --- kernel internals ---

// caller returns the descriptor of the calling process: the holder of
// the run token. A call that would block from anywhere else — a task step
// (cur is nil while a dispatcher holds the token), or a goroutine the kernel
// never spawned — has no descriptor to block on.
func (s *Sim) caller(op string) *proc {
	if s.cur == nil {
		panic("vtime: " + op + " would block outside a simulated process (passive callback or foreign goroutine)")
	}
	return s.cur
}

// block marks p, the calling process, blocked: on wait queue q if
// there is one, with its timeout entry filed if d >= 0. It then passes the
// run token on, which may run tasks and advance the clock as far as p's own
// timeout. The caller must then park on p.grant, after which p.state holds
// the outcome.
func (s *Sim) block(p *proc, q *procQueue, kind waitKind, on fmt.Stringer, d time.Duration) {
	p.wait = waitInfo{kind: kind, on: on, since: s.now}
	p.state = wsWaiting
	if d >= 0 {
		p.wait.deadline = s.now + d
		s.pushTimer(&p.tm, s.now+d)
	}
	if p.waitq = q; q != nil {
		q.push(p, waitLink)
	}
	s.blocked.push(p, blockedLink)
	s.pass(p)
}

// runnable is one entry of the run queue: a process, or the timer entry of
// a task or passive callback whose step is due.
type runnable struct {
	p *proc
	e *timerEntry
}

// ready queues r for the run token, FIFO behind whatever is already
// runnable. A parked process resumes only when it is actually its turn,
// which is what makes wake order (and therefore the whole run)
// deterministic. Readying never grants the token: Wait makes the first
// grant, and from then on the token is held — by a process, or by the
// dispatcher passing it on — until the run is over.
func (s *Sim) ready(r runnable) {
	s.runq = append(s.runq, r)
}

// pass gives up the run token on behalf of self — the process that
// just blocked or exited, nil for a goroutine the kernel does not own — and
// makes the caller the dispatcher: it runs queued tasks on its own stack,
// and while nothing is queued advances the clock and fires the next timer,
// until it has granted the token to a process (possibly self: the grant
// waits in the channel) or there is nothing left to do. Each timer fires
// alone: what it made runnable runs before the next one is popped.
func (s *Sim) pass(self *proc) {
	s.cur = nil
	for {
		for s.runqHead == len(s.runq) {
			if s.completed || !s.fireNext() {
				if s.completed {
					s.end()
				}
				return
			}
		}
		next := s.runq[s.runqHead]
		s.runq[s.runqHead] = runnable{}
		if s.runqHead++; s.runqHead == len(s.runq) {
			s.runq, s.runqHead = s.runq[:0], 0
		}
		if p := next.p; p != nil {
			if p != self {
				s.handoffs++
			}
			s.cur = p
			p.grant <- struct{}{}
			return
		}
		if s.completed {
			continue // only processes outlive the run
		}
		s.tasksRun++
		if t := next.e.task; t != nil {
			t.pending = false
			t.run.RunTask() // t is not touched again: see Task
		} else {
			next.e.fn() // a passive callback
		}
	}
}

// wake ends blocked process p's wait with outcome state: it leaves
// its wait queue and the blocked list, its timeout is cancelled, and it
// queues for the run token. It also lets go of what it waited on: a
// descriptor outlives its process on the free list, and would keep that
// object — and whatever embeds it — reachable until its next wait.
func (s *Sim) wake(p *proc, state int) {
	p.state = state
	p.wait.on = nil
	s.cancelTimer(&p.tm)
	if p.waitq != nil {
		p.waitq.remove(p, waitLink)
		p.waitq = nil
	}
	s.blocked.remove(p, blockedLink)
	s.ready(runnable{p: p})
}

// wakeAll wakes every process on q, longest-waiting first.
func (s *Sim) wakeAll(q *procQueue, state int) {
	for q.head != nil {
		s.wake(q.head, state)
	}
}

// pushTimer files entry, which is not filed, at virtual time when.
func (s *Sim) pushTimer(entry *timerEntry, when time.Duration) {
	s.seq++
	entry.when, entry.born, entry.seq = when, s.now, s.seq
	entry.filed = true
	s.timers.push(entry)
}

// cancelTimer takes entry out of the timer queue if it is filed there, and
// reports whether it was: whether a pending timer was prevented from firing.
func (s *Sim) cancelTimer(entry *timerEntry) bool {
	if !entry.filed {
		return false
	}
	entry.filed = false
	s.timers.remove(entry)
	return true
}

// fireNext advances virtual time to the earliest pending timer and
// fires it; it reports false, having ended the run, if there is none. Must
// be called with nothing runnable.
func (s *Sim) fireNext() bool {
	if s.timers.len() == 0 {
		s.reportDeadlock()
		return false
	}
	entry := s.timers.pop()
	entry.filed = false
	if entry.when > s.now {
		s.now = entry.when
	}
	// The open dispatch batch counts the timers fired at batchWhen; the
	// first timer of a later instant records it and opens the next.
	if s.batchCount > 0 && s.now != s.batchWhen {
		s.flushBatch()
	}
	s.batchWhen = s.now
	s.fire(entry)
	return true
}

// fire dispatches one timer: a sleep or timeout
// entry wakes its process (a filed entry means the process is still in the
// wait that filed it, since every other wake removes it), a task's entry
// readies the task, an AfterFunc entry spawns its callback as a daemon.
func (s *Sim) fire(entry *timerEntry) {
	s.batchCount++
	s.timersFired++
	if s.stats.TimerLead != nil {
		s.stats.TimerLead.Record(int64(entry.when - entry.born))
	}
	switch p := entry.proc; {
	case p != nil:
		s.wake(p, wsTimedOut)
	case entry.task != nil || entry.passive:
		s.ready(runnable{e: entry})
	default:
		s.startProc("afterfunc", entry.fn, true)
	}
}

// flushBatch records and resets the open dispatch batch.
func (s *Sim) flushBatch() {
	if s.batchCount > 0 && s.stats.DispatchBatch != nil {
		s.stats.DispatchBatch.Record(s.batchCount)
	}
	s.batchCount = 0
}

func (s *Sim) reportDeadlock() {
	s.flushBatch()
	var blocked []string
	for p := s.blocked.head; p != nil; p = p.links[blockedLink].next {
		blocked = append(blocked, p.name+": "+p.wait.describe())
	}
	s.deadlock = &DeadlockError{Now: s.now, Blocked: blocked}
	s.complete()
}

// --- processes ---

// proc is the kernel's descriptor of one simulated process. Whatever the
// process blocks on, it blocks on this: its wait record, the outcome, its
// timeout's timer entry and its place in a wait queue all live here, and grant is
// the channel it parks on. That is sound because every field is written
// by whoever holds the run token, and between blocking and being granted the
// token again the process itself runs no code.
type proc struct {
	name   string
	daemon bool
	fn     func()        // the process body, until it exits
	grant  chan struct{} // capacity 1, made once: receiving from it is holding the run token

	wait  waitInfo
	state int        // ws*: set to wsWaiting on block, to the outcome by the waker
	tm    timerEntry // the sleep/timeout entry, filed while a wait with a timeout lasts
	waitq *procQueue // wait queue p is blocked on, nil if none (Sleep, or not blocked)
	links [2]struct{ next, prev *proc }
}

const (
	waitLink    = iota // a Chan, Event or WaitGroup wait queue
	blockedLink        // Sim.blocked
)

const (
	wsWaiting = iota
	wsDelivered
	wsClosed
	wsTimedOut
)

// procQueue is an intrusive FIFO of process descriptors threaded through
// links[link], where link says which kind of queue it is and is passed in by
// its user: a queue is embedded in every Event, Chan and WaitGroup, so it is
// two words and no more. The zero value is an empty queue. A process waits
// on one thing at a time, so one pair of links serves every wait queue, and
// removal from the middle (a timeout) is O(1) and leaves nothing behind.
type procQueue struct {
	head, tail *proc
}

func (q *procQueue) push(p *proc, link int) {
	l := &p.links[link]
	l.prev, l.next = q.tail, nil
	if q.tail != nil {
		q.tail.links[link].next = p
	} else {
		q.head = p
	}
	q.tail = p
}

func (q *procQueue) remove(p *proc, link int) {
	l := &p.links[link]
	if l.prev != nil {
		l.prev.links[link].next = l.next
	} else {
		q.head = l.next
	}
	if l.next != nil {
		l.next.links[link].prev = l.prev
	} else {
		q.tail = l.prev
	}
	l.next, l.prev = nil, nil
}

type waitKind uint8

const (
	waitSleep waitKind = iota
	waitSend
	waitRecv
	waitWaitGroup
	waitEvent
)

// waitInfo describes what a blocked process waits for; it is formatted
// only if a deadlock is actually reported.
type waitInfo struct {
	kind     waitKind
	on       fmt.Stringer // the Chan or Event waited on, if any
	deadline time.Duration
	since    time.Duration
}

func (w *waitInfo) describe() string {
	switch w.kind {
	case waitSleep:
		return fmt.Sprintf("sleep until t=%v (since t=%v)", w.deadline, w.since)
	case waitSend:
		return fmt.Sprintf("send on %s (since t=%v)", w.on, w.since)
	case waitRecv:
		return fmt.Sprintf("recv on %s (since t=%v)", w.on, w.since)
	case waitWaitGroup:
		return fmt.Sprintf("waitgroup wait (since t=%v)", w.since)
	default:
		return fmt.Sprintf("event %s (since t=%v)", w.on, w.since)
	}
}

// --- timer entries ---

// timerEntry is one timer: a sleep or timeout that wakes proc (the entry
// embedded in its descriptor), the entry embedded in task, or (both nil)
// the entry embedded in a Timer, whose callback fn runs as a step (passive)
// or is spawned as a daemon. Being embedded, an entry is filed again and
// again; filed says whether it is in the timer queue now.
type timerEntry struct {
	when    time.Duration
	born    time.Duration // clock value when the timer was scheduled
	seq     uint64
	proc    *proc
	task    *Task
	fn      func()
	passive bool
	filed   bool
	where   int8  // the queue's record of where it filed the entry
	index   int32 // and the entry's index there
}

// timerQueue is the kernel's timer store: the wheel, or in tests the
// reference heap. It holds exactly the pending timers: pop returns them in
// exact (when, seq) order, and remove takes a filed entry out at once,
// wherever it is.
type timerQueue interface {
	push(e *timerEntry)
	pop() *timerEntry
	remove(e *timerEntry)
	len() int
}
