package dst

import (
	"fmt"
	"sort"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/federation"
	"cogrid/internal/flightrec"
	"cogrid/internal/grid"
	"cogrid/internal/slo"
	"cogrid/internal/trace"
)

// Violation is one broken protocol invariant.
type Violation struct {
	// Invariant names the rule: "kernel", "commit-votes",
	// "single-decision", "required-abort", "abort-no-exec",
	// "job-quiescence", "leaked-jobs", "processor-conservation",
	// "orphan-reap", "at-most-once", "handoff-reap", "trace".
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

// observations is everything the checker audits after a run: the grid
// (machines, counters, tracer), every job the controller accepted with
// its full event history, the orphan ledger, and the kernel verdict.
type observations struct {
	sc   Scenario
	g    *grid.Grid
	jobs []*core.Job
	// fedEntries is the federation's merged replicated journal (fed
	// driver only), already sorted by key.
	fedEntries []federation.Entry
	deadlock   error
	recorded   int64
	reaped     int64
	// bugs mirrors RunOptions.Bugs: a deliberately-broken protocol can
	// legitimately orphan and alert on a fault-free scenario, so the
	// no-false-positive checks stand down for self-test runs.
	bugs core.Bugs
	// alerts is the SLO engine's full alert log; dumps the flight
	// recorder's retained dumps; dumpSkipped the triggers beyond its
	// retention bound.
	alerts      []slo.Alert
	dumps       []flightrec.Dump
	dumpSkipped int64
}

// checkInvariants runs the whole library. The order of violations is
// deterministic: per-job checks walk jobs in submission order, machine
// checks walk names sorted.
func checkInvariants(o observations) []Violation {
	var v []Violation
	if o.deadlock != nil {
		// A deadlocked kernel means some protocol participant is stuck
		// forever; the post-run state below is mid-flight, so report only
		// the deadlock.
		return append(v, Violation{Invariant: "kernel", Detail: o.deadlock.Error()})
	}
	for _, j := range o.jobs {
		v = append(v, checkJob(j)...)
	}
	v = append(v, checkMachines(o)...)
	if o.recorded != o.reaped {
		v = append(v, Violation{
			Invariant: "orphan-reap",
			Detail:    fmt.Sprintf("%d orphans recorded but %d reaped", o.recorded, o.reaped),
		})
	}
	if o.sc.Driver == DriverFed {
		v = append(v, checkFederation(o)...)
	}
	v = append(v, checkTrace(o)...)
	v = append(v, checkSLO(o)...)
	return v
}

// checkSLO audits the observability plane itself.
//
// slo-false-positive: a fault-free scenario (with a correct protocol)
// must fire zero alerts and trigger zero dumps — the DST rules only watch
// signals a healthy run cannot move.
//
// slo-dump: every SLO fire freezes exactly one black box, so the count of
// slo-kind dumps equals the count of fire transitions (checkable only
// while the recorder retained every trigger).
//
// flight-dump: every retained dump's events satisfy the windowed trace
// well-formedness rules.
func checkSLO(o observations) []Violation {
	var v []Violation
	fires := 0
	for _, a := range o.alerts {
		if a.State == "fire" {
			fires++
		}
	}
	if len(o.sc.Faults) == 0 && o.bugs == (core.Bugs{}) {
		if fires > 0 {
			v = append(v, Violation{
				Invariant: "slo-false-positive",
				Detail: fmt.Sprintf("fault-free scenario fired %d alerts (first: %s %s)",
					fires, o.alerts[0].Rule, o.alerts[0].Detail),
			})
		}
		if n := len(o.dumps) + int(o.dumpSkipped); n > 0 {
			first := "(all beyond retention)"
			if len(o.dumps) > 0 {
				first = o.dumps[0].Trigger
			}
			v = append(v, Violation{
				Invariant: "slo-false-positive",
				Detail:    fmt.Sprintf("fault-free scenario triggered %d flight-recorder dumps (first: %s)", n, first),
			})
		}
	}
	if o.dumpSkipped == 0 {
		sloDumps := 0
		for _, d := range o.dumps {
			if d.Kind() == "slo" {
				sloDumps++
			}
		}
		if sloDumps != fires {
			v = append(v, Violation{
				Invariant: "slo-dump",
				Detail:    fmt.Sprintf("%d alert fires but %d slo dumps", fires, sloDumps),
			})
		}
	}
	for _, d := range o.dumps {
		if err := flightrec.Validate(d.Events); err != nil {
			v = append(v, Violation{
				Invariant: "flight-dump",
				Detail:    fmt.Sprintf("dump %s at %v: %v", d.Trigger, d.At, err),
			})
		}
	}
	return v
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
func checkFederation(o observations) []Violation {
	var v []Violation
	committed := map[string][]string{}
	for _, e := range o.fedEntries {
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
			v = append(v, Violation{
				Invariant: "at-most-once",
				Detail:    fmt.Sprintf("request key %s committed by %d tickets: %v", k, len(tickets), tickets),
			})
		}
	}
	for _, e := range o.fedEntries {
		if e.State == federation.StateOpen {
			v = append(v, Violation{
				Invariant: "handoff-reap",
				Detail: fmt.Sprintf("journal entry %s (%s from %s, owner %s) still open at quiescence",
					e.Key, e.Kind, e.Origin, e.Owner),
			})
		}
	}
	return v
}

// jobView is a job's history digested for the per-job checks.
type jobView struct {
	committedAt time.Duration
	committed   bool
	abortedAt   time.Duration
	aborted     bool
	doneAt      time.Duration
	done        bool
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
		case core.EvDone:
			if !w.done {
				w.done, w.doneAt = true, ev.At
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

func checkJob(j *core.Job) []Violation {
	var v []Violation
	bad := func(invariant, format string, args ...any) {
		v = append(v, Violation{Invariant: invariant, Job: j.ID(), Detail: fmt.Sprintf(format, args...)})
	}
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
	return v
}

func checkMachines(o observations) []Violation {
	var v []Violation
	batch := map[string]bool{}
	for _, ms := range o.sc.Machines {
		batch[ms.Name] = ms.Batch
	}
	for _, name := range o.g.Machines() {
		m := o.g.Machine(name)
		if n := m.LiveJobs(); n != 0 {
			v = append(v, Violation{
				Invariant: "leaked-jobs",
				Detail:    fmt.Sprintf("machine %s still runs %d jobs at quiescence", name, n),
			})
		}
		if batch[name] {
			if free, total := m.FreeProcessors(), m.Processors(); free != total {
				v = append(v, Violation{
					Invariant: "processor-conservation",
					Detail:    fmt.Sprintf("machine %s has %d of %d processors free at quiescence", name, free, total),
				})
			}
		}
	}
	return v
}

func checkTrace(o observations) []Violation {
	events := o.g.Tracer.Events()
	trace.Sort(events)
	var v []Violation
	for _, problem := range trace.Analyze(events).Check() {
		v = append(v, Violation{Invariant: "trace", Detail: problem})
	}
	return v
}
