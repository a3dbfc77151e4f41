package lrm

import "time"

// The batch scheduler's shadow-time and queue-wait estimates need the
// running set's expected releases in ascending end order. The old code
// rebuilt that order from scratch on every scheduling pass — copy the
// running map, sort, discard — which is O(R log R) of allocation and
// comparison per job completion. At million-job scale those scans dominate
// the profile. The releaseIndex below maintains the order incrementally: a
// binary min-heap of (end, seq) entries updated in O(log R) as jobs start,
// consulted with reusable scratch buffers so steady-state scheduling does
// not allocate.
//
// Deletion is lazy. m.running stays the ground truth; an index entry is
// live only while its job is still in m.running with the same expected
// end. Entries for finished jobs are dropped where an ascent passes them,
// and — since a machine whose queue never backs up, or one exactly full
// after every pass, never ascends, while every entry pins its job — in one
// sweep whenever they have come to outnumber the live ones
// (compactReleasesLocked). The property test in scale_test.go drives random
// start/finish interleavings and checks every consultation against a naive
// recompute from m.running.

// releaseEntry is one expected job release.
type releaseEntry struct {
	at    time.Duration // expected end (start + wall limit)
	procs int
	job   *Job
	seq   uint64 // push order, tie-break for deterministic ascent
}

// releaseIndex is a min-heap of releaseEntry ordered by (at, seq).
type releaseIndex struct {
	h       []releaseEntry
	nextSeq uint64
}

func (ri *releaseIndex) len() int { return len(ri.h) }

// note records a job's expected release.
func (ri *releaseIndex) note(job *Job, at time.Duration) {
	ri.nextSeq++
	ri.push(releaseEntry{at: at, procs: job.spec.Count, job: job, seq: ri.nextSeq})
}

func (ri *releaseIndex) push(e releaseEntry) {
	ri.h = append(ri.h, e)
	i := len(ri.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !releaseLess(ri.h[i], ri.h[parent]) {
			break
		}
		ri.h[i], ri.h[parent] = ri.h[parent], ri.h[i]
		i = parent
	}
}

// pop removes and returns the minimum entry. The caller is responsible for
// stale filtering.
func (ri *releaseIndex) pop() (releaseEntry, bool) {
	if len(ri.h) == 0 {
		return releaseEntry{}, false
	}
	top := ri.h[0]
	n := len(ri.h) - 1
	ri.h[0] = ri.h[n]
	ri.h[n] = releaseEntry{}
	ri.h = ri.h[:n]
	ri.down(0)
	return top, true
}

// down sifts the entry at i down to its place.
func (ri *releaseIndex) down(i int) {
	n := len(ri.h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && releaseLess(ri.h[right], ri.h[left]) {
			least = right
		}
		if !releaseLess(ri.h[least], ri.h[i]) {
			break
		}
		ri.h[i], ri.h[least] = ri.h[least], ri.h[i]
		i = least
	}
}

func releaseLess(a, b releaseEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// liveLocked reports whether e still stands for a running job's expected
// end. Caller holds m.mu.
func (m *Machine) liveLocked(e releaseEntry) bool {
	end, running := m.running[e.job]
	return running && end == e.at
}

// compactReleasesLocked bounds the index by the running set: once the
// entries number more than twice the running jobs and 16, it drops every
// stale one — the entries an ascent would drop — in place, and restores the
// heap over the rest. (at, seq) orders entries totally, so what an ascent
// visits, and in what order, does not depend on how the heap is laid out.
// Each sweep removes more entries than it keeps, so a start still costs
// O(log R) amortised; nothing is allocated. Caller holds m.mu.
func (m *Machine) compactReleasesLocked() {
	h := m.releases.h
	if len(h) <= 2*len(m.running)+16 {
		return
	}
	live := h[:0]
	for _, e := range h {
		if m.liveLocked(e) {
			live = append(live, e)
		}
	}
	clear(h[len(live):]) // the dropped entries' jobs
	m.releases.h = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		m.releases.down(i)
	}
}

// ascendReleasesLocked visits live releases in ascending (end, push) order
// until fn returns false. Visited live entries are re-filed with their
// original sequence numbers (so revisits keep the same order); stale
// entries — job finished, no longer in m.running — are dropped for good.
// Caller holds m.mu.
func (m *Machine) ascendReleasesLocked(fn func(at time.Duration, procs int) bool) {
	visited := m.relScratch[:0]
	for {
		e, ok := m.releases.pop()
		if !ok {
			break
		}
		if !m.liveLocked(e) {
			continue
		}
		visited = append(visited, e)
		if !fn(e.at, e.procs) {
			break
		}
	}
	for _, e := range visited {
		m.releases.push(e)
	}
	m.relScratch = visited[:0]
}

// relPoint is a (release time, processor count) pair used by the
// queue-wait simulation's reusable scratch.
type relPoint struct {
	at    time.Duration
	procs int
}
