// Package agent implements application-level co-allocation strategies on
// top of the DUROC mechanisms, demonstrating the paper's layering: the
// mechanism component provides editing, typed failure callbacks, and
// two-phase commit; agents compose them into policies.
//
// Three strategies from Section 3.2 are provided: Atomic (all-or-nothing,
// GRAB semantics expressed through DUROC), WithSubstitution (replace
// failed interactive subjobs from a pool of alternatives), and
// OverProvision (request more resources than needed and commit to the
// first K that become available, terminating the rest). SelectByForecast
// implements the Section 2.2 resource selection using published queue-wait
// forecasts of varying quality.
package agent

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/mds"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// Result reports a strategy's outcome.
type Result struct {
	Config core.Config
	Job    *core.Job
	// Substitutions counts resources replaced along the way.
	Substitutions int
	// Deleted counts subjobs dropped (over-provision surplus or
	// unsubstitutable failures).
	Deleted int
}

// commitSlice is how long a strategy lets Commit block between servicing
// failure callbacks.
const commitSlice = time.Second

// Atomic runs an all-or-nothing co-allocation: every subjob is forced to
// required, so any failure aborts the whole request — the GRAB strategy
// expressed through DUROC mechanisms.
func Atomic(ctrl *core.Controller, req core.Request, timeout time.Duration) (Result, error) {
	for i := range req.Subjobs {
		req.Subjobs[i].Type = core.Required
	}
	job, err := ctrl.Submit(req)
	if err != nil {
		return Result{}, err
	}
	cfg, err := job.Commit(timeout)
	if err != nil {
		job.Abort("atomic strategy: " + err.Error())
		return Result{Job: job}, err
	}
	return Result{Config: cfg, Job: job}, nil
}

// SubstituteOptions configures WithSubstitution.
type SubstituteOptions struct {
	// Pool lists alternative resource manager contacts, used in order.
	Pool []transport.Addr
	// CommitTimeout bounds the whole allocation (0 = wait indefinitely).
	CommitTimeout time.Duration
	// DropUnreplaceable deletes a failed interactive subjob when the pool
	// is exhausted (proceed with reduced fidelity); otherwise the
	// allocation aborts.
	DropUnreplaceable bool
	// OnJob, if set, is called with the job as soon as submission
	// succeeds, before the strategy starts driving it. Callers use it to
	// attach external supervision (e.g. the broker's per-attempt
	// watchdog) to a job they otherwise only see after the strategy
	// returns.
	OnJob func(*core.Job)
	// Ctx is the causal span context the allocation runs under; the
	// submitted job and all its 2PC legs parent beneath it. Zero roots a
	// fresh request tree at the job id.
	Ctx trace.Ctx
}

// WithSubstitution submits the request and services interactive-failure
// callbacks by substituting resources from a pool — the paper's Section 2
// scenario (replace a crashed machine; drop a slow one). The agent runs
// single-threaded: it alternates between servicing the event stream and
// attempting to commit.
func WithSubstitution(ctrl *core.Controller, req core.Request, opts SubstituteOptions) (Result, error) {
	job, err := ctrl.SubmitCtx(req, opts.Ctx)
	if err != nil {
		return Result{}, err
	}
	if opts.OnJob != nil {
		opts.OnJob(job)
	}
	res := Result{Job: job}
	sim := ctrl.Sim()
	var deadline time.Duration
	if opts.CommitTimeout > 0 {
		deadline = sim.Now() + opts.CommitTimeout
	}
	poolNext := 0
	for {
		if job.Ready() {
			cfg, err := job.Commit(commitSlice)
			if err == nil {
				res.Config = cfg
				return res, nil
			}
			if errors.Is(err, core.ErrAborted) {
				return res, err
			}
			// A failure raced the commit; fall through and service it.
		}
		wait := commitSlice
		if deadline > 0 {
			remaining := deadline - sim.Now()
			if remaining <= 0 {
				job.Abort("substitution strategy: timed out")
				return res, core.ErrCommitTimeout
			}
			if remaining < wait {
				wait = remaining
			}
		}
		ev, recvRes := job.Events().RecvTimeout(wait)
		switch recvRes {
		case vtime.RecvClosed:
			return res, fmt.Errorf("%w: %s", core.ErrAborted, job.Err())
		case vtime.RecvTimedOut:
			continue
		}
		if ev.Kind != core.EvSubjobFailed || ev.Type != core.Interactive {
			continue
		}
		if poolNext < len(opts.Pool) {
			alt := opts.Pool[poolNext]
			poolNext++
			var spec core.SubjobSpec
			for _, info := range job.Status() {
				if info.Spec.Label == ev.Label {
					spec = info.Spec
					break
				}
			}
			spec.Contact = alt
			spec.Label = fmt.Sprintf("%s~%d", ev.Label, poolNext)
			if err := job.Substitute(ev.Label, spec); err != nil {
				job.Abort("substitution strategy: " + err.Error())
				return res, err
			}
			res.Substitutions++
			continue
		}
		if opts.DropUnreplaceable {
			if err := job.Delete(ev.Label); err == nil {
				res.Deleted++
			}
			continue
		}
		job.Abort(fmt.Sprintf("subjob %q failed and the substitution pool is exhausted", ev.Label))
		return res, fmt.Errorf("%w: pool exhausted after subjob %q failed", core.ErrSubjobNotReady, ev.Label)
	}
}

// OverProvisionOptions configures OverProvision.
type OverProvisionOptions struct {
	// Needed is the number of worker subjobs that must commit.
	Needed int
	// CommitTimeout bounds the allocation (0 = wait indefinitely).
	CommitTimeout time.Duration
}

// OverProvision implements the Section 3.2 strategy of requesting several
// alternative resources simultaneously and committing to the first that
// become available: all subjobs are submitted as interactive; once Needed
// of them have checked in, the remainder are deleted ("terminate subjobs
// that have not yet responded to the request prior to committing") and
// the configuration commits.
func OverProvision(ctrl *core.Controller, req core.Request, opts OverProvisionOptions) (Result, error) {
	if opts.Needed <= 0 || opts.Needed > len(req.Subjobs) {
		return Result{}, fmt.Errorf("agent: need %d of %d subjobs", opts.Needed, len(req.Subjobs))
	}
	for i := range req.Subjobs {
		req.Subjobs[i].Type = core.Interactive
	}
	job, err := ctrl.Submit(req)
	if err != nil {
		return Result{}, err
	}
	res := Result{Job: job}
	sim := ctrl.Sim()
	var deadline time.Duration
	if opts.CommitTimeout > 0 {
		deadline = sim.Now() + opts.CommitTimeout
	}
	checkedIn := make(map[string]bool)
	failed := make(map[string]bool)
	for len(checkedIn) < opts.Needed {
		wait := time.Hour
		if deadline > 0 {
			wait = deadline - sim.Now()
			if wait <= 0 {
				job.Abort("over-provision: timed out")
				return res, core.ErrCommitTimeout
			}
		}
		ev, recvRes := job.Events().RecvTimeout(wait)
		switch recvRes {
		case vtime.RecvClosed:
			return res, fmt.Errorf("%w: %s", core.ErrAborted, job.Err())
		case vtime.RecvTimedOut:
			continue
		}
		switch ev.Kind {
		case core.EvCheckedIn:
			checkedIn[ev.Label] = true
		case core.EvSubjobFailed:
			failed[ev.Label] = true
			if len(req.Subjobs)-len(failed) < opts.Needed {
				job.Abort("over-provision: too many failures")
				return res, fmt.Errorf("%w: only %d candidates remain, need %d",
					core.ErrSubjobNotReady, len(req.Subjobs)-len(failed), opts.Needed)
			}
		}
	}
	// Terminate every subjob not in the chosen set.
	for _, info := range job.Status() {
		if checkedIn[info.Spec.Label] || info.Status == core.SJDeleted {
			continue
		}
		if err := job.Delete(info.Spec.Label); err == nil {
			res.Deleted++
		}
	}
	timeout := opts.CommitTimeout
	if timeout == 0 {
		timeout = time.Hour
	}
	cfg, err := job.Commit(timeout)
	if err != nil {
		job.Abort("over-provision: " + err.Error())
		return res, err
	}
	res.Config = cfg
	return res, nil
}

// SelectByForecast orders candidate records by their published queue-wait
// forecast for jobs of the given size, perturbed by multiplicative
// log-normal noise of the given sigma (0 = trust the forecasts exactly),
// and returns the best k. Records without a forecast for the size sort
// last.
func SelectByForecast(records []mds.Record, count, k int, sigma float64, gauss func() float64) []mds.Record {
	type scored struct {
		rec  mds.Record
		wait time.Duration
	}
	scoredRecs := make([]scored, 0, len(records))
	for _, rec := range records {
		wait, ok := rec.ForecastWait[count]
		if !ok {
			wait = 365 * 24 * time.Hour
		}
		scoredRecs = append(scoredRecs, scored{rec: rec, wait: noisy(wait, sigma, gauss)})
	}
	sort.SliceStable(scoredRecs, func(i, j int) bool { return scoredRecs[i].wait < scoredRecs[j].wait })
	if k > len(scoredRecs) {
		k = len(scoredRecs)
	}
	out := make([]mds.Record, k)
	for i := 0; i < k; i++ {
		out[i] = scoredRecs[i].rec
	}
	return out
}

// noisy wraps a true wait with multiplicative log-normal noise of the
// given sigma, modeling forecast quality in the Section 2.2 experiments:
// sigma 0 is a perfect oracle, large sigma is uninformed guessing.
func noisy(trueWait time.Duration, sigma float64, gauss func() float64) time.Duration {
	if sigma <= 0 {
		return trueWait
	}
	factor := math.Exp(gauss() * sigma)
	return time.Duration(float64(trueWait) * factor)
}
