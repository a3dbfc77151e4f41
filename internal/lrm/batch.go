package lrm

import (
	"sort"
	"time"
)

// defaultLimit stands in for "unknown runtime" in scheduler arithmetic
// when a job has no wall-time limit.
const defaultLimit = 24 * time.Hour

func limitOf(j *Job) time.Duration {
	if j.spec.TimeLimit > 0 {
		return j.spec.TimeLimit
	}
	return defaultLimit
}

// available returns processors available to the batch queue now:
// free processors minus active reservation carve-outs. Machines with no
// reservations — the common case for pure batch load — skip the carve-out
// walk and the clock read entirely.
func (m *Machine) available() int {
	if len(m.reservations) == 0 {
		return m.freeProcs
	}
	avail := m.freeProcs - m.reservedAt(m.sim.Now())
	if avail < 0 {
		avail = 0
	}
	return avail
}

// schedule starts queued jobs: FCFS from the head, then conservative EASY
// backfill — a later job may start only if it fits now and its wall-time
// limit guarantees it finishes before the head job's shadow time (the
// earliest the head could otherwise start).
func (m *Machine) schedule() {
	if m.mode != Batch {
		return
	}
	toLaunch := m.launchScratch[:0]
	// FCFS: start head jobs while they fit.
	for len(m.queue) > 0 && m.queue[0].spec.Count <= m.available() {
		job := m.queue[0]
		m.queue = m.queue[1:]
		m.freeProcs -= job.spec.Count
		m.runningAdd(job)
		toLaunch = append(toLaunch, job)
	}
	// Backfill behind a blocked head, if there is a processor to backfill
	// onto: a backlogged machine is full on most passes, and then nothing can
	// start, whatever the shadow time. The scan is bounded: past backfillDepth
	// candidates the pass gives up and leaves the tail queued, keeping each
	// pass O(depth) instead of O(queue) — across a draining backlog that is
	// the difference between linear and quadratic work — and it ends when
	// the last processor is taken.
	if avail := m.available(); len(m.queue) > 1 && avail > 0 {
		now := m.sim.Now()
		shadow := m.shadowTime(m.queue[0])
		kept := m.queue[:1]
		for i, job := range m.queue[1:] {
			if avail == 0 || i >= backfillDepth {
				kept = append(kept, m.queue[1+i:]...)
				break
			}
			if job.spec.Count <= avail && now+limitOf(job) <= shadow {
				avail -= job.spec.Count
				m.freeProcs -= job.spec.Count
				m.runningAdd(job)
				toLaunch = append(toLaunch, job)
				continue
			}
			kept = append(kept, job)
		}
		m.queue = kept
	}
	if len(toLaunch) == 0 {
		return
	}
	m.launchScratch = nil // off the machine: a launch may schedule again
	for _, job := range toLaunch {
		m.launch(job)
	}
	clear(toLaunch)
	m.launchScratch = toLaunch
}

// runningAdd records a batch job's expected end for shadow-time
// computation, both in the ground-truth map and the incremental release
// index.
func (m *Machine) runningAdd(job *Job) {
	if m.running == nil {
		m.running = make(map[*Job]time.Duration)
	}
	end := m.sim.Now() + limitOf(job)
	m.running[job] = end
	m.releases.note(job, end)
	m.compactReleases()
}

// shadowTime computes the earliest time the given head job could
// start, assuming running jobs end at their wall-time limits. The release
// index yields expected ends in ascending order, so the walk stops as soon
// as enough capacity accumulates — no per-pass sort of the running set.
func (m *Machine) shadowTime(head *Job) time.Duration {
	avail := m.available()
	if head.spec.Count <= avail {
		return m.sim.Now()
	}
	// Cannot determine (should not happen for admissible jobs): no backfill.
	shadow := m.sim.Now() + defaultLimit
	m.ascendReleases(func(at time.Duration, procs int) bool {
		avail += procs
		if head.spec.Count <= avail {
			shadow = at
			return false
		}
		return true
	})
	return shadow
}

// QueueInfo is the scheduler state a resource manager publishes — the
// "information about the current queue contents and scheduling policy" of
// Section 2.2, as counts.
type QueueInfo struct {
	Processors     int
	FreeProcessors int
	RunningJobs    int
	QueuedJobs     int
}

// QueueInfo reports the batch queue's counts.
func (m *Machine) QueueInfo() QueueInfo {
	return QueueInfo{
		Processors:     m.processors,
		FreeProcessors: m.available(),
		RunningJobs:    len(m.running),
		QueuedJobs:     len(m.queue),
	}
}

// EstimateWait predicts how long a newly submitted job of the given size
// would wait before starting, assuming running and queued jobs consume
// their full wall-time limits and FCFS order. This is the queue-time
// forecast a local manager can publish (Section 2.2, [9, 26]).
func (m *Machine) EstimateWait(count int) time.Duration {
	if count > m.processors {
		return defaultLimit
	}
	now := m.sim.Now()
	// Seed the simulation from the release index (already ascending;
	// clamping past-due ends to now preserves the order) into a reusable
	// scratch buffer, so a forecast allocates nothing in steady state.
	rels := m.estScratch[:0]
	m.ascendReleases(func(at time.Duration, procs int) bool {
		if at < now {
			at = now
		}
		rels = append(rels, relPoint{at: at, procs: procs})
		return true
	})
	m.estScratch = rels
	avail := m.available()
	t := now
	startOne := func(need int, limit time.Duration) time.Duration {
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
			return defaultLimit // never fits
		}
		avail -= need
		rels = append(rels, relPoint{at: t + limit, procs: need})
		return t
	}
	for _, queued := range m.queue {
		startOne(queued.spec.Count, limitOf(queued))
	}
	start := startOne(count, defaultLimit)
	if start >= defaultLimit {
		return defaultLimit
	}
	return start - now
}
