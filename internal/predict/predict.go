// Package predict implements queue-wait forecasting: the techniques
// Section 2.2 cites for improving co-allocation success by predicting
// expected future resource availability ([9] Downey's analytic estimators,
// [26] Smith–Foster–Taylor historical categories).
//
// Two families are provided. History predicts a job's runtime from the
// mean of past runtimes in its category (executable and size bucket).
// Downey's conditional estimator predicts the remaining lifetime of a
// running job from its age under a heavy-tailed (log-uniform style)
// lifetime model, where the median remaining life equals the current age.
// ForecastWait combines either with a queue simulation to estimate how
// long a new job would wait.
package predict

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cogrid/internal/lrm"
)

// --- Smith–Foster historical predictor ---

// History records observed runtimes by category and predicts new ones
// from category means.
type History struct {
	byCt map[string][]float64
}

// NewHistory creates an empty history.
func NewHistory() *History {
	return &History{byCt: make(map[string][]float64)}
}

// Category buckets a job by executable and log2 size class, the
// template-attribute approach of Smith–Foster–Taylor.
func Category(executable string, count int) string {
	bucket := 0
	for n := count; n > 1; n >>= 1 {
		bucket++
	}
	return fmt.Sprintf("%s/2^%d", executable, bucket)
}

// Observe records a completed job's runtime.
func (h *History) Observe(category string, runtime time.Duration) {
	h.byCt[category] = append(h.byCt[category], runtime.Seconds())
}

// Predict returns the mean runtime of the category and the sample count.
// With no history it returns (0, 0).
func (h *History) Predict(category string) (time.Duration, int) {
	xs := h.byCt[category]
	if len(xs) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return time.Duration(sum / float64(len(xs)) * float64(time.Second)), len(xs)
}

// PredictUpper returns a mean-plus-k-standard-errors upper bound, the
// conservative estimate used for admission decisions.
func (h *History) PredictUpper(category string, k float64) (time.Duration, int) {
	xs := h.byCt[category]
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	se := math.Sqrt(ss/float64(n)) / math.Sqrt(float64(n))
	return time.Duration((mean + k*se) * float64(time.Second)), n
}

// --- Downey conditional remaining-life estimator ---

// RemainingQuantile estimates the q-quantile of a running job's remaining
// lifetime given its age, under the heavy-tailed model P(T > x·t | T > t)
// = 1/x: remaining(q) = age · q/(1-q). The median (q = 0.5) equals the
// age — "the longer it has run, the longer it will keep running".
func RemainingQuantile(age time.Duration, q float64) time.Duration {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(float64(age) * q / (1 - q))
}

// RemainingMedian is RemainingQuantile at q = 0.5.
func RemainingMedian(age time.Duration) time.Duration { return age }

// HistoryEstimator predicts runtimes from recorded history, falling back
// to the wall-time limit when a category has no observations — the
// Smith–Foster–Taylor approach applied to queue-wait forecasting.
type HistoryEstimator struct {
	History *History
	// Category maps a job's size to its history category; a nil func
	// uses Category("job", count).
	CategoryFunc func(count int) string
	// Fallback handles categories without history.
	Fallback Estimator
}

func (e HistoryEstimator) category(count int) string {
	if e.CategoryFunc != nil {
		return e.CategoryFunc(count)
	}
	return Category("job", count)
}

func (e HistoryEstimator) fallback() Estimator {
	if e.Fallback != nil {
		return e.Fallback
	}
	return LimitEstimator{}
}

// Remaining implements Estimator: predicted total runtime minus elapsed,
// clamped at zero; limit-bounded.
func (e HistoryEstimator) Remaining(r lrm.RunningJob) time.Duration {
	mean, n := e.History.Predict(e.category(r.Count))
	if n == 0 {
		return e.fallback().Remaining(r)
	}
	rem := mean - r.Elapsed
	if rem < 0 {
		rem = 0
	}
	if r.TimeLimit > 0 {
		if bound := r.TimeLimit - r.Elapsed; rem > bound {
			rem = max(bound, 0)
		}
	}
	return rem
}

// Runtime implements Estimator.
func (e HistoryEstimator) Runtime(w lrm.QueuedJob) time.Duration {
	mean, n := e.History.Predict(e.category(w.Count))
	if n == 0 {
		return e.fallback().Runtime(w)
	}
	if w.TimeLimit > 0 && mean > w.TimeLimit {
		return w.TimeLimit
	}
	return mean
}

// --- queue-wait forecasting ---

// Estimator predicts runtimes for queue simulation.
type Estimator interface {
	// Remaining estimates how much longer a running job will run.
	Remaining(r lrm.RunningJob) time.Duration
	// Runtime estimates a waiting job's total runtime.
	Runtime(w lrm.QueuedJob) time.Duration
}

// LimitEstimator assumes every job consumes its full wall-time limit —
// what a local manager can guarantee without any modeling.
type LimitEstimator struct {
	// DefaultLimit stands in for jobs with no limit.
	DefaultLimit time.Duration
}

func (e LimitEstimator) limit(l time.Duration) time.Duration {
	if l > 0 {
		return l
	}
	if e.DefaultLimit > 0 {
		return e.DefaultLimit
	}
	return 24 * time.Hour
}

// Remaining implements Estimator.
func (e LimitEstimator) Remaining(r lrm.RunningJob) time.Duration {
	rem := e.limit(r.TimeLimit) - r.Elapsed
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Runtime implements Estimator.
func (e LimitEstimator) Runtime(w lrm.QueuedJob) time.Duration { return e.limit(w.TimeLimit) }

// DowneyEstimator predicts remaining life from age (median remaining =
// age) and waiting jobs' runtimes from a quantile of their limits.
type DowneyEstimator struct {
	// Quantile of the remaining-life distribution to use for running
	// jobs; 0.5 (the median) if zero.
	Quantile float64
	// WaitingFraction scales waiting jobs' limits (jobs rarely use their
	// full request); 0.5 if zero.
	WaitingFraction float64
	// DefaultLimit stands in for jobs with no limit.
	DefaultLimit time.Duration
}

// Remaining implements Estimator.
func (e DowneyEstimator) Remaining(r lrm.RunningJob) time.Duration {
	q := e.Quantile
	if q == 0 {
		q = 0.5
	}
	rem := RemainingQuantile(r.Elapsed, q)
	if r.TimeLimit > 0 {
		if bound := r.TimeLimit - r.Elapsed; rem > bound {
			rem = max(bound, 0)
		}
	}
	return rem
}

// Runtime implements Estimator.
func (e DowneyEstimator) Runtime(w lrm.QueuedJob) time.Duration {
	f := e.WaitingFraction
	if f == 0 {
		f = 0.5
	}
	l := w.TimeLimit
	if l == 0 {
		l = e.DefaultLimit
		if l == 0 {
			l = 24 * time.Hour
		}
	}
	return time.Duration(float64(l) * f)
}

// ForecastWait predicts how long a new job of the given size would wait in
// the published queue state, by simulating FCFS scheduling with the
// estimator's runtimes. It returns a very large value when the job can
// never fit.
func ForecastWait(info lrm.QueueInfo, count int, est Estimator) time.Duration {
	const never = 365 * 24 * time.Hour
	if count > info.Processors {
		return never
	}
	type release struct {
		at    time.Duration
		procs int
	}
	var rels []release
	for _, r := range info.Running {
		rels = append(rels, release{at: est.Remaining(r), procs: r.Count})
	}
	avail := info.FreeProcessors
	var t time.Duration
	startOne := func(need int, runtime time.Duration) time.Duration {
		sort.Slice(rels, func(i, j int) bool { return rels[i].at < rels[j].at })
		idx := 0
		for avail < need && idx < len(rels) {
			if rels[idx].at > t {
				t = rels[idx].at
			}
			avail += rels[idx].procs
			idx++
		}
		rels = rels[idx:]
		if avail < need {
			return never
		}
		avail -= need
		rels = append(rels, release{at: t + runtime, procs: need})
		return t
	}
	for _, q := range info.QueuedJobs {
		if startOne(q.Count, est.Runtime(q)) >= never {
			return never
		}
	}
	return startOne(count, time.Hour)
}

// --- forecast quality model for experiments ---

// Noisy wraps a true wait with multiplicative log-normal noise of the
// given sigma, modeling forecast quality in the Section 2.2 experiments:
// sigma 0 is a perfect oracle, large sigma is uninformed guessing.
func Noisy(trueWait time.Duration, sigma float64, gauss func() float64) time.Duration {
	if sigma <= 0 {
		return trueWait
	}
	factor := math.Exp(gauss() * sigma)
	return time.Duration(float64(trueWait) * factor)
}
