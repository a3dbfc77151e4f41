package workload

import (
	"fmt"
	"sort"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/federation"
	"cogrid/internal/flightrec"
	"cogrid/internal/lrm"
	"cogrid/internal/slo"
	"cogrid/internal/trace"
)

// Violation is one broken protocol invariant.
type Violation struct {
	// Invariant names the rule: "commit-votes", "single-decision",
	// "required-abort", "abort-no-exec", "job-quiescence", "leaked-jobs",
	// "processor-conservation", "orphan-reap", "at-most-once",
	// "handoff-reap", "trace", "slo-false-positive", "slo-dump",
	// "flight-dump"; or "kernel", a deadlocked run, which a harness reports
	// instead of auditing its mid-flight state.
	Invariant string `json:"invariant"`
	// Job is the co-allocation id, when the violation is per-job.
	Job    string `json:"job,omitempty"`
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	if v.Job != "" {
		return fmt.Sprintf("%s [%s]: %s", v.Invariant, v.Job, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Invariant, v.Detail)
}

// Audit checks the paper's promises against the testbed once its run has
// quiesced: 2PC safety and the subjob-type rules for every job any
// co-allocator accepted, no job or processor left on a machine, every
// orphan reaped, the federation's journal settled, a well-formed causal
// trace and, when eng is the run's SLO engine, the observability plane
// itself (nil leaves it unchecked). ctrls are the controllers the harness
// owns beside the testbed's brokers; nil ones are skipped. The order is
// deterministic: jobs in submission order, the lone broker's, then every
// replica's, then ctrls', and machines by name.
func (tb *Testbed) Audit(eng *slo.Engine, ctrls ...*core.Controller) []Violation {
	var r report
	for _, j := range tb.jobs(ctrls) {
		r.checkJob(j)
	}
	r.checkMachines(tb)
	if recorded, reaped := tb.Orphans(ctrls...); recorded != reaped {
		r.add("orphan-reap", "", "%d orphans recorded but %d reaped", recorded, reaped)
	}
	if tb.Fed != nil {
		r.checkFederation(tb.Fed.MergedJournal())
	}
	events := tb.Grid.Tracer.Events()
	trace.Sort(events)
	for _, problem := range trace.Analyze(events).Check() {
		r.add("trace", "", "%s", problem)
	}
	if eng != nil {
		r.checkSLO(tb, eng)
	}
	return r
}

// Gate renders violations as gate messages, one each, naming the run they
// were found in by id: what the studies' Checks and gridsim report.
func Gate(id string, violations []Violation) []string {
	var bad []string
	for _, v := range violations {
		bad = append(bad, fmt.Sprintf("%s: %v", id, v))
	}
	return bad
}

// report collects one audit's violations in the order they are found.
type report []Violation

func (r *report) add(invariant, job, format string, args ...any) {
	*r = append(*r, Violation{Invariant: invariant, Job: job, Detail: fmt.Sprintf(format, args...)})
}

// jobs is every job the run's co-allocators accepted: the lone broker's,
// every incarnation of every replica's — a crashed process's jobs still owe
// the 2PC safety invariants for everything they did before dying — and
// ctrls'.
func (tb *Testbed) jobs(ctrls []*core.Controller) []*core.Job {
	var jobs []*core.Job
	if tb.Broker != nil {
		jobs = tb.Broker.Controller().Jobs()
	}
	if tb.Fed != nil {
		for _, r := range tb.Fed.Replicas() {
			for _, rb := range r.Brokers() {
				jobs = append(jobs, rb.Controller().Jobs()...)
			}
		}
	}
	for _, c := range ctrls {
		if c != nil {
			jobs = append(jobs, c.Jobs()...)
		}
	}
	return jobs
}

// Orphans is the run's orphan ledger: the orphans recorded and reaped by
// the lone broker's controller and ctrls, read from their duroc.orphan
// counters, plus a federation's, read from its replicated journal — a dead
// replica's orphans are reaped by its peers, not by their recorder.
func (tb *Testbed) Orphans(ctrls ...*core.Controller) (recorded, reaped int64) {
	counters := tb.Grid.Counters
	count := func(c *core.Controller) {
		if c != nil {
			host := c.Contact().Host
			recorded += counters.Get(trace.Key("duroc", "orphan", "record", host))
			reaped += counters.Get(trace.Key("duroc", "orphan", "reaped", host))
		}
	}
	if tb.Broker != nil {
		count(tb.Broker.Controller())
	}
	for _, c := range ctrls {
		count(c)
	}
	if tb.Fed != nil {
		for _, e := range tb.Fed.MergedJournal() {
			if e.Kind == federation.KindOrphan {
				recorded++
				if e.State != federation.StateOpen {
					reaped++
				}
			}
		}
	}
	return recorded, reaped
}

// checkSLO audits the observability plane itself.
//
// slo-false-positive: a run without faults (with a correct protocol) must
// fire zero alerts and trigger zero dumps — the rules only watch signals a
// healthy run cannot move.
//
// slo-dump: every SLO fire freezes exactly one black box, so the count of
// slo-kind dumps equals the count of fire transitions (checkable only
// while the recorder retained every trigger).
//
// flight-dump: every retained dump's events satisfy the windowed trace
// well-formedness rules.
func (r *report) checkSLO(tb *Testbed, eng *slo.Engine) {
	alerts, dumps, skipped := eng.Alerts(), tb.Grid.Flight.Dumps(), tb.Grid.Flight.Skipped()
	fires := eng.Fires()
	// A deliberately broken protocol can legitimately orphan and alert on
	// a fault-free run, so the no-false-positive rule stands down for it.
	if !tb.faulted && tb.bugs == (core.Bugs{}) {
		if fires > 0 {
			r.add("slo-false-positive", "", "fault-free scenario fired %d alerts (first: %s %s)",
				fires, alerts[0].Rule, alerts[0].Detail)
		}
		if n := len(dumps) + int(skipped); n > 0 {
			first := "(all beyond retention)"
			if len(dumps) > 0 {
				first = dumps[0].Trigger
			}
			r.add("slo-false-positive", "", "fault-free scenario triggered %d flight-recorder dumps (first: %s)", n, first)
		}
	}
	if skipped == 0 {
		sloDumps := 0
		for _, d := range dumps {
			if d.Kind() == "slo" {
				sloDumps++
			}
		}
		if sloDumps != fires {
			r.add("slo-dump", "", "%d alert fires but %d slo dumps", fires, sloDumps)
		}
	}
	for _, d := range dumps {
		if err := flightrec.Validate(d.Events); err != nil {
			r.add("flight-dump", "", "dump %s at %v: %v", d.Trigger, d.At, err)
		}
	}
}

// checkFederation audits the replicated journal after a federated run.
//
// at-most-once: whatever crashed, forwarded, or was retried, each request
// key commits at most one ticket across the whole replica group — a
// second commit is a duplicate allocation of the same work.
//
// handoff-reap: no journal entry is still open at quiescence. An open
// ticket is a 2PC stuck mid-flight; an open allocation or orphan is a
// machine-side job nobody settled — a dead replica's duty that no peer
// picked up.
func (r *report) checkFederation(entries []federation.Entry) {
	committed := map[string][]string{}
	for _, e := range entries {
		if e.Kind == federation.KindTicket && e.Committed && e.ReqKey != "" {
			committed[e.ReqKey] = append(committed[e.ReqKey], e.Key)
		}
	}
	keys := make([]string, 0, len(committed))
	for k := range committed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if tickets := committed[k]; len(tickets) > 1 {
			r.add("at-most-once", "", "request key %s committed by %d tickets: %v", k, len(tickets), tickets)
		}
	}
	for _, e := range entries {
		if e.State == federation.StateOpen {
			r.add("handoff-reap", "", "journal entry %s (%s from %s, owner %s) still open at quiescence",
				e.Key, e.Kind, e.Origin, e.Owner)
		}
	}
}

// jobView is a job's history digested for the per-job checks.
type jobView struct {
	committedAt time.Duration
	committed   bool
	abortedAt   time.Duration
	aborted     bool
	// checkedIn and failed record the first EvCheckedIn / EvSubjobFailed
	// per subjob label.
	checkedIn map[string]time.Duration
	failed    map[string]time.Duration
}

func digest(hist []core.Event) jobView {
	w := jobView{
		checkedIn: map[string]time.Duration{},
		failed:    map[string]time.Duration{},
	}
	for _, ev := range hist {
		switch ev.Kind {
		case core.EvCommitted:
			if !w.committed {
				w.committed, w.committedAt = true, ev.At
			}
		case core.EvAborted:
			if !w.aborted {
				w.aborted, w.abortedAt = true, ev.At
			}
		case core.EvCheckedIn:
			if _, ok := w.checkedIn[ev.Label]; !ok {
				w.checkedIn[ev.Label] = ev.At
			}
		case core.EvSubjobFailed:
			if _, ok := w.failed[ev.Label]; !ok {
				w.failed[ev.Label] = ev.At
			}
		}
	}
	return w
}

func (r *report) checkJob(j *core.Job) {
	bad := func(invariant, format string, args ...any) { r.add(invariant, j.ID(), format, args...) }
	hist := j.History()
	status := j.Status()
	w := digest(hist)

	// 2PC safety, voting half: the commit decision requires unanimous
	// check-in from every participant. A subjob deleted before release is
	// out of the commitment; optional subjobs never vote.
	if w.committed {
		for _, si := range status {
			if si.Spec.Type == core.Optional || si.Status == core.SJDeleted {
				continue
			}
			at, ok := w.checkedIn[si.Spec.Label]
			if !ok || at > w.committedAt {
				bad("commit-votes", "committed at %v but %s subjob %s had not checked in",
					w.committedAt, si.Spec.Type, si.Spec.Label)
			}
			if fat, failed := w.failed[si.Spec.Label]; failed && fat < w.committedAt {
				bad("commit-votes", "committed at %v although %s subjob %s failed at %v",
					w.committedAt, si.Spec.Type, si.Spec.Label, fat)
			}
		}
	}

	// The commit decision is made at most once, and never after an abort.
	commits := 0
	for _, ev := range hist {
		if ev.Kind == core.EvCommitted {
			commits++
		}
	}
	if commits > 1 {
		bad("single-decision", "%d commit decisions", commits)
	}
	if w.committed && w.aborted && w.committedAt > w.abortedAt {
		bad("single-decision", "committed at %v after abort at %v", w.committedAt, w.abortedAt)
	}

	// A required subjob's failure terminates the whole computation. The
	// event's own Type is authoritative: substitution may rewrite the
	// label's spec after the failure.
	for _, ev := range hist {
		if ev.Kind == core.EvSubjobFailed && ev.Type == core.Required && !w.aborted {
			bad("required-abort", "required subjob %s failed but the job never aborted", ev.Label)
			break
		}
	}

	// 2PC safety, abort half: a job aborted before any commit decision
	// must not have executed — no subjob runs to completion, and every
	// subjob lands in failed or deleted.
	if w.aborted && !w.committed {
		for _, ev := range hist {
			if ev.Kind == core.EvSubjobDone {
				bad("abort-no-exec", "subjob %s ran to completion in an aborted job", ev.Label)
			}
		}
		for _, si := range status {
			if si.Status != core.SJFailed && si.Status != core.SJDeleted {
				bad("abort-no-exec", "subjob %s is %v after abort", si.Spec.Label, si.Status)
			}
		}
	}

	// Every accepted job reaches a terminal state by quiescence; a
	// co-allocation stuck mid-2PC forever is a liveness bug.
	if !j.Done().IsSet() {
		bad("job-quiescence", "job still live at quiescence")
	}
}

// checkMachines: no machine runs a job at quiescence, and every batch
// machine has all its processors free again.
func (r *report) checkMachines(tb *Testbed) {
	for _, name := range tb.Grid.Machines() {
		m := tb.Grid.Machine(name)
		if n := m.LiveJobs(); n != 0 {
			r.add("leaked-jobs", "", "machine %s still runs %d jobs at quiescence", name, n)
		}
		if free, total := m.FreeProcessors(), m.Processors(); m.Mode() == lrm.Batch && free != total {
			r.add("processor-conservation", "", "machine %s has %d of %d processors free at quiescence", name, free, total)
		}
	}
}
