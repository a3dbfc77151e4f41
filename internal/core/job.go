package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"cogrid/internal/gram"
	"cogrid/internal/lrm"
	"cogrid/internal/rsl"
	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// subjob is the controller's view of one element of the resource set.
type subjob struct {
	spec    SubjobSpec
	status  SubjobStatus
	client  *gram.Client
	contact string
	reason  string
	// ctx is the subjob's causal span context, a child of the job's.
	ctx trace.Ctx

	// checkins holds the processes waiting in the barrier, by local rank,
	// until they are answered (release or discard): a released job stays
	// in Controller.Jobs for the audit, its waiters must not.
	checkins map[int]*procCheckin

	queuedAt    time.Duration
	submittedAt time.Duration
	checkedInAt time.Duration
}

// takeWaiters removes and returns the subjob's barrier waiters in
// local-rank order: whoever answers them does so in an order that does not
// depend on map iteration.
func (sj *subjob) takeWaiters() []*procCheckin {
	ranks := make([]*procCheckin, 0, len(sj.checkins))
	for _, ci := range sj.checkins {
		ranks = append(ranks, ci)
	}
	sort.Slice(ranks, func(a, b int) bool { return ranks[a].rank < ranks[b].rank })
	clear(sj.checkins)
	return ranks
}

// procCheckin records one process waiting in the barrier: the call to
// answer, and the task that answers it once a verdict is in.
type procCheckin struct {
	rank    int
	addr    string
	at      time.Duration
	call    replier
	verdict verdict
	answer  vtime.Task
}

// verdict is what ends a barrier wait: the release all ranks share plus
// this rank's place in it, or the abort reason when rel is nil.
type verdict struct {
	rel              *release
	mySubjob, myRank int
	reason           string
}

func (v verdict) reply() CheckinReply {
	if v.rel == nil {
		return CheckinReply{Proceed: false, Reason: v.reason}
	}
	return v.rel.reply(v.mySubjob, v.myRank)
}

// decide records the verdict and readies the waiter's answer — in the
// run-queue slot where a process parked in the barrier would have been
// woken, so the replies leave in the order the verdicts were given and
// behind whatever was already runnable, never from inside the caller.
func (ci *procCheckin) decide(v verdict) {
	ci.verdict = v
	ci.answer.Ready()
}

// RunTask sends the waiter's reply.
func (ci *procCheckin) RunTask() { ci.call.Reply(ci.verdict.reply(), nil) }

// Job is a co-allocation in progress: the single abstraction through which
// the agent monitors and controls the whole resource ensemble.
type Job struct {
	c  *Controller
	id string
	// ctx is the causal span context of the request that submitted this
	// co-allocation (a fresh root when none was supplied).
	ctx trace.Ctx

	subjobs  []*subjob
	byLabel  map[string]*subjob
	nextAuto int

	committing bool
	released   bool
	terminated bool
	termReason string
	release    *release // set with released
	releaseAt  time.Duration
	waits      []time.Duration

	queue   *vtime.Chan[*subjob]
	events  *vtime.Chan[Event]
	signal  *vtime.Chan[struct{}]
	done    *vtime.Event
	history []Event
}

// ID returns the co-allocation identifier.
func (j *Job) ID() string { return j.id }

// Events returns the job's event stream. It closes after the terminal
// EvDone or EvAborted event.
func (j *Job) Events() *vtime.Chan[Event] { return j.events }

// Done returns an event set when the co-allocation terminates: aborted, or
// all committed subjobs finished.
func (j *Job) Done() *vtime.Event { return j.done }

// Err returns the termination reason, or "" if none.
func (j *Job) Err() string {
	return j.termReason
}

// SubjobInfo is a snapshot of one subjob's progress.
type SubjobInfo struct {
	Spec    SubjobSpec
	Status  SubjobStatus
	Reason  string
	Contact string
}

// Status snapshots all subjobs in request order.
func (j *Job) Status() []SubjobInfo {
	out := make([]SubjobInfo, len(j.subjobs))
	for i, sj := range j.subjobs {
		out[i] = SubjobInfo{Spec: sj.spec, Status: sj.status, Reason: sj.reason, Contact: sj.contact}
	}
	return out
}

// BarrierWaits returns, after release, each process's time spent in the
// co-allocation barrier (Figure 4's "Avg. barrier wait" data).
func (j *Job) BarrierWaits() []time.Duration {
	return append([]time.Duration(nil), j.waits...)
}

// emit delivers an event to the agent and records it in the job history.
// Every lifecycle event is also mirrored into the trace stream as an
// instant so an external trace viewer sees the same record the agent does.
func (j *Job) emit(kind EventKind, sj *subjob, reason string) {
	ev := Event{Kind: kind, Reason: reason, At: j.c.sim.Now()}
	if sj != nil {
		ev.Label = sj.spec.Label
		ev.Type = sj.spec.Type
	}
	j.history = append(j.history, ev)
	if tr := j.c.tracer(); tr.Enabled() {
		var args []trace.Arg
		if ev.Label != "" {
			args = append(args, trace.Arg{Key: "label", Val: ev.Label}, trace.Arg{Key: "type", Val: ev.Type.String()})
		}
		if reason != "" {
			args = append(args, trace.Arg{Key: "reason", Val: reason})
		}
		ctx := j.ctx
		if sj != nil {
			ctx = sj.ctx
		}
		tr.InstantCtx(ctx, "duroc", kind.String(), j.c.host.Name(), j.id, "", args...)
	}
	j.c.counters().AddKey("duroc", "event", kind.String(), j.c.host.Name(), 1)
	j.events.TrySend(ev)
}

// History returns every event emitted so far, in order — the monitoring
// record an agent or operator consults after the fact.
func (j *Job) History() []Event {
	return append([]Event(nil), j.history...)
}

// poke wakes a blocked Commit.
func (j *Job) poke() { j.signal.TrySend(struct{}{}) }

// --- request editing (Section 3.2: add, delete, substitute) ---

// defaultStartupTimeout bounds submission-to-check-in for a subjob whose
// spec sets no StartupTimeout.
const defaultStartupTimeout = 10 * time.Minute

// add registers a new subjob and queues it for submission.
func (j *Job) add(spec SubjobSpec) (*subjob, error) {
	if spec.Count <= 0 {
		return nil, fmt.Errorf("duroc: subjob %q: count must be positive", spec.Label)
	}
	if spec.Executable == "" {
		return nil, fmt.Errorf("duroc: subjob %q: missing executable", spec.Label)
	}
	if spec.Label == "" {
		spec.Label = "sj" + strconv.Itoa(j.nextAuto)
		j.nextAuto++
	}
	if _, dup := j.byLabel[spec.Label]; dup {
		return nil, fmt.Errorf("duroc: duplicate subjob label %q", spec.Label)
	}
	if spec.StartupTimeout == 0 {
		spec.StartupTimeout = defaultStartupTimeout
	}
	sj := &subjob{
		spec:     spec,
		status:   SJQueued,
		ctx:      j.c.tracer().Child(j.ctx, "sj:", trace.Seg(spec.Label)),
		checkins: make(map[int]*procCheckin),
		queuedAt: j.c.sim.Now(),
	}
	j.subjobs = append(j.subjobs, sj)
	j.byLabel[spec.Label] = sj
	j.queue.TrySend(sj)
	return sj, nil
}

// Add appends a subjob to the request. Allowed until the commit decision
// (for required and interactive subjobs) and, for optional subjobs, any
// time before termination.
func (j *Job) Add(spec SubjobSpec) error {
	if j.terminated {
		return ErrAborted
	}
	if j.released && spec.Type != Optional {
		return ErrCommitted
	}
	_, err := j.add(spec)
	if err == nil {
		j.poke()
	}
	return err
}

// Delete removes a subjob from the request, cancelling any resources it
// holds. Its barrier waiters are released with an abort.
func (j *Job) Delete(label string) error {
	if j.terminated {
		return ErrAborted
	}
	if j.released {
		return ErrCommitted
	}
	sj, ok := j.byLabel[label]
	if !ok || sj.status == SJDeleted {
		return ErrNoSuchSubjob
	}
	j.editOut(sj, "deleted by agent")
	j.poke()
	return nil
}

// editOut removes a subjob from the request: live subjobs are
// discarded (resources cancelled, barrier waiters aborted); already-failed
// subjobs are simply marked deleted so they no longer block commitment.
func (j *Job) editOut(sj *subjob, reason string) {
	if sj.status == SJFailed {
		sj.status = SJDeleted
		sj.reason = reason + " (after failure: " + sj.reason + ")"
		return
	}
	j.discard(sj, SJDeleted, reason)
}

// Substitute replaces a subjob with a different resource specification, as
// one edit.
func (j *Job) Substitute(label string, spec SubjobSpec) error {
	if j.terminated {
		return ErrAborted
	}
	if j.released {
		return ErrCommitted
	}
	sj, ok := j.byLabel[label]
	if !ok || sj.status == SJDeleted {
		return ErrNoSuchSubjob
	}
	j.editOut(sj, "substituted by agent")
	if _, err := j.add(spec); err != nil {
		return err
	}
	j.poke()
	return nil
}

// discard cancels a subjob's resources and releases its barrier
// waiters with an abort.
func (j *Job) discard(sj *subjob, status SubjobStatus, reason string) {
	if sj.status.terminal() {
		return
	}
	sj.status = status
	sj.reason = reason
	for _, ci := range sj.takeWaiters() {
		ci.decide(verdict{reason: reason})
	}
	client, contact := sj.client, sj.contact
	sj.client = nil
	if client != nil {
		spec, ctx := sj.spec, sj.ctx
		j.c.sim.GoDaemon("duroc-cancel:"+j.id+"/"+spec.Label, func() {
			if contact != "" {
				j.cancelRemote(client, spec, contact, ctx)
			}
			client.Close()
		})
	}
}

// cancelRemote issues a best-effort cancel for a discarded subjob's LRM
// job. A cancel that cannot be confirmed — the resource manager crashed,
// hung, or partitioned away mid-2PC — is recorded as an orphan: the
// remote job may still hold processors, and the controller re-cancels it
// until the resource manager answers (Controller.reap).
func (j *Job) cancelRemote(client *gram.Client, spec SubjobSpec, contact string, ctx trace.Ctx) {
	err := client.CancelTimeout(contact, j.c.cfg.CancelTimeout)
	if err == nil {
		return
	}
	j.c.counters().AddKey("duroc", "cancel", "fail", j.c.host.Name(), 1)
	j.c.orphaned(Orphan{
		Job:        j.id,
		Subjob:     spec.Label,
		RM:         spec.Contact,
		JobContact: contact,
		Reason:     err.Error(),
		Ctx:        ctx,
	})
}

// --- submission engine ---

// engine submits queued subjobs sequentially. The sequential structure is
// what produces the pipelined timeline of Figure 5: the client-serialized
// portion of each GRAM request (connection, authentication, request
// processing) staggers successive subjobs, while process startup and
// barrier waits overlap.
func (j *Job) engine() {
	for {
		sj, ok := j.queue.Recv()
		if !ok {
			return
		}
		if sj.status != SJQueued || j.terminated {
			continue
		}
		if j.c.cfg.ParallelSubmission {
			sj := sj
			j.c.sim.GoDaemon("duroc-submit:"+j.id+"/"+sj.spec.Label, func() {
				j.submitSubjob(sj)
			})
			continue
		}
		j.submitSubjob(sj)
	}
}

// submitSubjob performs one GRAM submission and wires up monitoring.
func (j *Job) submitSubjob(sj *subjob) {
	c := j.c
	start := c.sim.Now()
	client, err := c.dial(sj.spec.Contact, sj.ctx)
	if err != nil {
		j.subjobFailed(sj, fmt.Sprintf("submit: %v", err))
		return
	}
	contact, err := client.Submit(j.subjobRSL(sj))
	c.record(sj.ctx, sj.spec.Label, "submit", start, c.sim.Now())
	if err != nil {
		client.Close()
		j.subjobFailed(sj, fmt.Sprintf("submit: %v", err))
		return
	}

	if sj.status != SJQueued || j.terminated {
		// Deleted or aborted while we were submitting: undo. The undo is
		// subject to the same lost-contact risk as any discard, so an
		// unconfirmed cancel is recorded as an orphan here too.
		j.cancelRemote(client, sj.spec, contact, sj.ctx)
		client.Close()
		return
	}
	sj.client = client
	sj.contact = strings.Clone(contact) // kept for the job's life: not a view of the reply frame
	sj.status = SJSubmitted
	sj.submittedAt = c.sim.Now()
	if c.cfg.OnAllocation != nil {
		c.cfg.OnAllocation(j.id, sj.spec.Label, sj.spec.Contact, contact)
	}
	j.emit(EvSubmitted, sj, "")
	j.poke()

	// Startup timeout: submission to full check-in.
	c.sim.AfterFunc(sj.spec.StartupTimeout, func() {
		if !sj.status.terminal() && sj.status != SJCheckedIn && sj.status != SJReleased && !j.released {
			j.subjobFailed(sj, "startup timeout after "+sj.spec.StartupTimeout.String())
		}
	})

	c.sim.GoDaemon("duroc-monitor:"+j.id+"/"+sj.spec.Label, func() {
		j.monitorSubjob(sj, client)
	})
}

// subjobRSL builds the GRAM request for one subjob, injecting the DUROC
// environment the application runtime attaches to. It writes exactly what
// the rsl printer writes for the conjunction
//
//	&(executable=E)(count=N)[(maxTime=M)][(reservationID=R)]
//	 (environment=(EnvContact C EnvJob J EnvSubjob S [EnvTrace T]))
//
// into a stack buffer, so the returned string is its one allocation.
func (j *Job) subjobRSL(sj *subjob) string {
	var stack [512]byte
	b := append(stack[:0], "&(executable="...)
	b = rsl.AppendLiteral(b, sj.spec.Executable)
	// Decimal integers are bare literals: digits and '-' are token bytes.
	b = append(b, ")(count="...)
	b = strconv.AppendInt(b, int64(sj.spec.Count), 10)
	if sj.spec.MaxTime > 0 {
		b = append(b, ")(maxTime="...)
		b = strconv.AppendInt(b, int64(int(sj.spec.MaxTime/time.Minute)), 10)
	}
	if sj.spec.ReservationID != "" {
		b = append(b, ")(reservationID="...)
		b = rsl.AppendLiteral(b, sj.spec.ReservationID)
	}
	b = append(b, ")(environment=("...)
	b = rsl.AppendLiteral(b, EnvContact)
	b = append(b, ' ')
	b = rsl.AppendLiteral(b, j.c.host.Name(), ":", ServiceName)
	b = append(b, ' ')
	b = rsl.AppendLiteral(b, EnvJob)
	b = append(b, ' ')
	b = rsl.AppendLiteral(b, j.id)
	b = append(b, ' ')
	b = rsl.AppendLiteral(b, EnvSubjob)
	b = append(b, ' ')
	b = rsl.AppendLiteral(b, sj.spec.Label)
	if sj.ctx.Valid() {
		// Thread the causal span context through the environment so the
		// application runtime's barrier check-in joins this request's tree.
		b = append(b, ' ')
		b = rsl.AppendLiteral(b, EnvTrace)
		b = append(b, ' ')
		b = rsl.AppendLiteral(b, sj.ctx.Req, "|", sj.ctx.Span)
	}
	b = append(b, "))"...)
	return string(b)
}

// monitorSubjob consumes GRAM callbacks for one subjob.
func (j *Job) monitorSubjob(sj *subjob, client *gram.Client) {
	for {
		ev, ok := client.Events().Recv()
		if !ok {
			// Connection lost: if the subjob is still in flight this is a
			// resource failure with error-report semantics.
			if !sj.status.terminal() && sj.status != SJDone {
				j.subjobFailed(sj, "lost contact with resource manager")
			}
			return
		}
		switch ev.State {
		case lrm.StateActive:
			if sj.status == SJSubmitted {
				sj.status = SJActive
			}
			j.emit(EvActive, sj, "")
			j.poke()
		case lrm.StateFailed:
			j.subjobFailed(sj, "resource manager reported failure: "+ev.Reason)
		case lrm.StateDone:
			released := sj.status == SJReleased
			// A fully checked-in optional subjob is part of the released
			// configuration and must finish through subjobDone like any
			// other participant; only optionals still outside it at release
			// time take the late-joiner path. Without the !released guard
			// the status flips to SJDone here and subjobDone's re-check
			// balks, so the job never observes the completion and EvDone
			// never fires.
			lateOptional := !released && j.released && sj.spec.Type == Optional && !sj.status.terminal()
			if lateOptional {
				sj.status = SJDone
			}
			switch {
			case released:
				j.subjobDone(sj)
			case lateOptional:
				j.emit(EvSubjobDone, sj, "")
			default:
				j.subjobFailed(sj, "processes exited before the co-allocation barrier")
			}
			return
		case lrm.StateCancelled:
			// Cancellation is initiated by this controller; the subjob has
			// already been marked. Nothing to do.
		}
	}
}

// subjobFailed applies the Section 3.2 failure semantics for sj's type.
func (j *Job) subjobFailed(sj *subjob, reason string) {
	if sj.status.terminal() || j.terminated {
		return
	}
	wasReleased := sj.status == SJReleased
	j.discard(sj, SJFailed, reason)
	typ := sj.spec.Type
	j.poke()

	j.emit(EvSubjobFailed, sj, reason)
	if typ == Required {
		// Required failure terminates the whole computation, before or
		// after commit.
		j.terminate(fmt.Sprintf("required subjob %q failed: %s", sj.spec.Label, reason))
		return
	}
	if wasReleased {
		j.checkAllDone()
	}
}

// subjobDone marks a released subjob finished.
func (j *Job) subjobDone(sj *subjob) {
	if sj.status != SJReleased {
		return
	}
	sj.status = SJDone
	if sj.client != nil {
		client := sj.client
		sj.client = nil
		j.c.sim.GoDaemon("duroc-close:"+j.id+"/"+sj.spec.Label, client.Close)
	}
	j.emit(EvSubjobDone, sj, "")
	j.checkAllDone()
}

// completionGrace is how far past a released subjob's wall-time limit the
// controller waits for the completion callback before polling the
// resource manager directly, and the retry pace when the poll cannot get
// an answer.
const completionGrace = 30 * time.Second

// superviseReleased arms a completion watchdog on every released subjob
// that has a wall-time limit. Completion callbacks ride an event stream a
// network partition can drop silently: the LRM job finishes and frees its
// processors, but the controller would wait for EvSubjobDone forever.
// Once the wall-time limit plus grace passes, the job must have left the
// machine one way or another, so the watchdog polls the resource manager
// for the authoritative verdict. Subjobs without a limit are unbounded by
// contract and cannot be supervised this way.
func (j *Job) superviseReleased() {
	for _, sj := range j.subjobs {
		if sj.status == SJReleased && sj.spec.MaxTime > 0 {
			sj := sj
			j.c.sim.AfterFunc(sj.spec.MaxTime+completionGrace, func() { j.pollReleased(sj) })
		}
	}
}

// pollReleased resolves a released subjob whose completion notification is
// overdue: a fresh dial (the original connection may itself be the
// casualty) and a state poll, retried until the resource manager answers.
// The poll's verdict feeds the normal completion paths, so a lost DONE
// callback becomes subjobDone and a lost FAILED becomes the usual failure
// semantics.
func (j *Job) pollReleased(sj *subjob) {
	if sj.status != SJReleased {
		return
	}
	retry := func() { j.c.sim.AfterFunc(completionGrace, func() { j.pollReleased(sj) }) }
	client, err := j.c.dial(sj.spec.Contact, j.c.tracer().Child(sj.ctx, "completion-poll"))
	if err != nil {
		retry()
		return
	}
	defer client.Close()
	state, reason, err := client.Status(sj.contact)
	if err != nil {
		retry()
		return
	}
	j.c.counters().AddKey("duroc", "completion", "poll", j.c.host.Name(), 1)
	switch state {
	case lrm.StateDone:
		j.subjobDone(sj)
	case lrm.StateFailed:
		j.subjobFailed(sj, "completion watchdog: resource manager reports failure: "+reason)
	case lrm.StateCancelled:
		j.subjobFailed(sj, "completion watchdog: cancelled at resource manager")
	default:
		// Still on the machine: wall-time enforcement is evidently lax
		// here (fork-mode machines do not meter). Keep watching.
		retry()
	}
}

// checkAllDone completes the job once every released subjob has finished.
func (j *Job) checkAllDone() {
	if !j.released || j.terminated {
		return
	}
	for _, sj := range j.subjobs {
		if sj.status == SJReleased {
			return
		}
	}
	j.terminated = true
	j.emit(EvDone, nil, "")
	j.finish()
}

// terminate aborts or kills the whole co-allocation.
func (j *Job) terminate(reason string) {
	if j.terminated {
		return
	}
	j.terminated = true
	j.termReason = reason
	for _, sj := range j.subjobs {
		if !sj.status.terminal() {
			j.discard(sj, SJFailed, reason)
		}
	}
	j.poke()
	j.emit(EvAborted, nil, reason)
	j.finish()
}

// finish closes the job's channels and sets done.
func (j *Job) finish() {
	if !j.queue.IsClosed() {
		j.queue.Close()
	}
	j.events.Close()
	j.c.gauges().G("duroc.outstanding@" + j.c.host.Name()).Add(-1)
	j.done.Set()
}

// Abort terminates the co-allocation before commit; Kill is the collective
// control operation for a running computation (Section 3.4). They share
// semantics.
func (j *Job) Abort(reason string) {
	if reason == "" {
		reason = "aborted by agent"
	}
	j.terminate(reason)
}

// Kill terminates the whole running computation — the collective "kill"
// control operation of Section 3.4.
func (j *Job) Kill() { j.terminate("killed by agent") }

// Suspend pauses every released subjob's processes, treating the ensemble
// as a collective unit — one of the further control operations Section
// 3.4 anticipates. It returns the first error encountered.
func (j *Job) Suspend() error { return j.signalAll((*gram.Client).Suspend) }

// Resume continues a suspended computation.
func (j *Job) Resume() error { return j.signalAll((*gram.Client).Resume) }

func (j *Job) signalAll(op func(*gram.Client, string) error) error {
	if !j.released {
		return ErrNotCommitted
	}
	type target struct {
		client  *gram.Client
		contact string
	}
	var targets []target
	for _, sj := range j.subjobs {
		if sj.status == SJReleased && sj.client != nil {
			targets = append(targets, target{client: sj.client, contact: sj.contact})
		}
	}
	var firstErr error
	for _, t := range targets {
		if err := op(t.client, t.contact); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- barrier and commit ---

// checkin handles one process's arrival at the co-allocation barrier: the
// call is answered at the commit decision (or immediately for late joiners
// and failures). It never blocks. ctx is the caller's propagated span
// context (zero when the process attached without one); barrier instants
// land under it.
func (j *Job) checkin(args CheckinArgs, ctx trace.Ctx, call replier) {
	sj, ok := j.byLabel[args.Subjob]
	if !ok {
		call.Reply(CheckinReply{Proceed: false, Reason: "unknown subjob " + args.Subjob}, nil)
		return
	}
	if j.terminated || sj.status.terminal() {
		reason := j.termReason
		if reason == "" {
			reason = sj.reason
		}
		call.Reply(CheckinReply{Proceed: false, Reason: reason}, nil)
		return
	}
	if !args.OK {
		j.subjobFailed(sj, fmt.Sprintf("process %d reported unsuccessful startup: %s", args.Rank, args.Msg))
		call.Reply(CheckinReply{Proceed: false, Reason: "startup rejected: " + args.Msg}, nil)
		return
	}
	if j.released {
		// Late joiner from an optional subjob: proceed immediately with
		// the committed configuration.
		reply := j.release.reply(j.committedIndex(sj), -1)
		call.Reply(reply, nil)
		return
	}
	// The record outlives the message: it keeps a copy of the address, not a
	// view that would keep the whole check-in frame alive (internal/wire).
	ci := &procCheckin{rank: args.Rank, addr: strings.Clone(args.Addr), at: j.c.sim.Now(), call: call}
	ci.answer.Init(j.c.sim, ci)
	sj.checkins[args.Rank] = ci
	if tr := j.c.tracer(); tr.Enabled() {
		if !ctx.Valid() {
			ctx = sj.ctx
		}
		tr.InstantCtx(ctx, "duroc", "barrier-enter", j.c.host.Name(), j.id+"/"+args.Subjob, "",
			trace.Arg{Key: "rank", Val: strconv.Itoa(args.Rank)})
	}
	j.c.counters().AddKey("duroc", "barrier", "enter", j.c.host.Name(), 1)
	full := len(sj.checkins) == sj.spec.Count
	if full && (sj.status == SJActive || sj.status == SJSubmitted) {
		sj.status = SJCheckedIn
		sj.checkedInAt = j.c.sim.Now()
		j.c.record(sj.ctx, sj.spec.Label, "startup-wait", sj.submittedAt, sj.checkedInAt)
	}
	if full {
		j.emit(EvCheckedIn, sj, "")
		j.poke()
	}
}

// committedIndex returns sj's index within the committed
// configuration, or -1.
func (j *Job) committedIndex(sj *subjob) int {
	for i, label := range j.release.cfg.SubjobLabels() {
		if label == sj.spec.Label {
			return i
		}
	}
	return -1
}

// CommitReadiness describes what Commit is waiting for.
type CommitReadiness struct {
	Ready     bool
	Waiting   []string // labels not yet checked in (required/interactive)
	Failed    []string // failed, not yet edited out (required/interactive)
	CheckedIn []string
}

// Readiness reports whether the request could commit now, and what it
// waits for. Its three lists share one allocation.
func (j *Job) Readiness() CommitReadiness {
	n := j.readinessCounts()
	r := CommitReadiness{Ready: j.Ready()}
	if n[0]+n[1]+n[2] == 0 {
		return r
	}
	labels := make([]string, n[0]+n[1]+n[2])
	lists := [3][]string{labels[:0:n[0]], labels[n[0] : n[0] : n[0]+n[1]], labels[n[0]+n[1] : n[0]+n[1]]}
	for _, sj := range j.subjobs {
		if k := readinessSlot(sj); k >= 0 {
			lists[k] = append(lists[k], sj.spec.Label)
		}
	}
	// An empty list stays nil, as callers print it.
	if n[0] > 0 {
		r.CheckedIn = lists[0]
	}
	if n[1] > 0 {
		r.Failed = lists[1]
	}
	if n[2] > 0 {
		r.Waiting = lists[2]
	}
	return r
}

// readinessSlot places a subjob in Readiness's lists: 0 checked in, 1
// failed, 2 waiting, -1 in none (optional or deleted).
func readinessSlot(sj *subjob) int {
	if sj.spec.Type == Optional || sj.status == SJDeleted {
		return -1
	}
	switch sj.status {
	case SJCheckedIn:
		return 0
	case SJFailed:
		return 1
	}
	return 2
}

// readinessCounts counts the subjobs in each of readinessSlot's lists.
func (j *Job) readinessCounts() (n [3]int) {
	for _, sj := range j.subjobs {
		if k := readinessSlot(sj); k >= 0 {
			n[k]++
		}
	}
	return n
}

// Ready is Readiness().Ready without the lists, for a commit loop to read
// on every wake: every required and interactive subjob that is not deleted
// has checked in, and at least one has. It allocates nothing.
func (j *Job) Ready() bool {
	n := j.readinessCounts()
	if j.c.cfg.Bugs.DoubleCommit {
		// Injected 2PC bug (see core.Bugs): one vote is treated as
		// unanimity, so the commit decision lands while non-optional
		// participants are still waiting or failed.
		return n[0] > 0
	}
	return n[0] > 0 && n[1]+n[2] == 0
}

// Commit waits until every required and interactive subjob has fully
// checked in, then releases all barriers with the committed configuration.
// Edits remain possible while Commit blocks (that is what makes the
// transaction interactive). A zero timeout waits indefinitely; on timeout
// Commit returns ErrCommitTimeout or, if failed subjobs were never edited
// out, ErrSubjobNotReady.
func (j *Job) Commit(timeout time.Duration) (Config, error) {
	deadline := j.c.sim.Now() + timeout
	commitStart := j.c.sim.Now()
	finish := func(outcome string) {
		if tr := j.c.tracer(); tr.Enabled() {
			tr.SpanCtx(tr.Child(j.ctx, "commit"), "duroc", "commit", j.c.host.Name(), j.id, "", commitStart,
				trace.Arg{Key: "outcome", Val: outcome})
		}
		j.c.counters().AddKey("duroc", "commit", outcome, j.c.host.Name(), 1)
	}
	j.committing = true
	for {
		if j.terminated {
			finish("aborted")
			return Config{}, fmt.Errorf("%w: %s", ErrAborted, j.termReason)
		}
		if j.released {
			finish("ok")
			return j.release.cfg, nil
		}
		if j.Ready() {
			cfg := j.releaseAll()
			j.emit(EvCommitted, nil, "")
			j.superviseReleased()
			finish("ok")
			return cfg, nil
		}
		if timeout == 0 {
			j.signal.Recv()
			continue
		}
		remaining := deadline - j.c.sim.Now()
		if remaining <= 0 {
			if r := j.Readiness(); len(r.Failed) > 0 {
				finish("not-ready")
				return Config{}, fmt.Errorf("%w: failed subjobs %v", ErrSubjobNotReady, r.Failed)
			}
			finish("timeout")
			return Config{}, ErrCommitTimeout
		}
		j.signal.RecvTimeout(remaining)
	}
}

// releaseAll computes the committed configuration and releases every
// waiting process.
func (j *Job) releaseAll() Config {
	now := j.c.sim.Now()
	cfg := Config{}
	var committed []*subjob
	for _, sj := range j.subjobs {
		// Fully checked-in subjobs of any type join the static
		// configuration; partially arrived optional subjobs become late
		// joiners below.
		if sj.status == SJCheckedIn {
			committed = append(committed, sj)
		}
	}
	var labels []string
	for _, sj := range committed {
		cfg.NSubjobs++
		cfg.SubjobSizes = append(cfg.SubjobSizes, sj.spec.Count)
		labels = append(labels, sj.spec.Label)
		cfg.WorldSize += sj.spec.Count
	}
	book := make([]string, 0, cfg.WorldSize)
	// ranked[i] is committed[i]'s waiters in local-rank order: the order of
	// the address book, of the replies and of j.waits.
	ranked := make([][]*procCheckin, len(committed))
	for i, sj := range committed {
		ranked[i] = sj.takeWaiters()
		for _, ci := range ranked[i] {
			book = append(book, ci.addr)
		}
	}
	cfg.setSubjobLabels(labels)
	cfg.setAddressBook(book)
	// One encoding of the configuration serves every reply below and every
	// late joiner after.
	rel := newRelease(cfg)
	j.release = rel
	j.released = true
	j.releaseAt = now
	if tr := j.c.tracer(); tr.Enabled() {
		tr.InstantCtx(j.ctx, "duroc", "release", j.c.host.Name(), j.id, "",
			trace.Arg{Key: "world", Val: strconv.Itoa(cfg.WorldSize)},
			trace.Arg{Key: "subjobs", Val: strconv.Itoa(cfg.NSubjobs)})
	}
	j.c.counters().AddKey("duroc", "barrier", "release", j.c.host.Name(), 1)

	for idx, sj := range committed {
		for _, ci := range ranked[idx] {
			ci.decide(verdict{rel: rel, mySubjob: idx, myRank: cfg.RankOf(idx, ci.rank)})
			j.waits = append(j.waits, now-ci.at)
		}
		sj.status = SJReleased
		j.c.record(sj.ctx, sj.spec.Label, "barrier", sj.checkedInAt, now)
	}
	// Optional subjobs with partial check-ins become late joiners.
	for _, sj := range j.subjobs {
		if sj.spec.Type == Optional && !sj.status.terminal() && sj.status != SJReleased {
			for _, ci := range sj.takeWaiters() {
				ci.decide(verdict{rel: rel, mySubjob: -1, myRank: -1})
			}
		}
	}
	return cfg
}
