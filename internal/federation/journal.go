package federation

import (
	"sort"
	"strings"
	"time"
)

// Entry kinds: a ticket (one admitted co-allocation request), an alloc
// (one subjob holding an LRM job contact), or an orphan (a cancel the
// owning controller could not confirm).
const (
	KindTicket = "ticket"
	KindAlloc  = "alloc"
	KindOrphan = "orphan"
)

// Entry states. State only advances (open -> closed/reaped), which is
// what makes journal replication a monotone merge: any two copies of an
// entry reconcile to the more advanced one, regardless of arrival order
// or split-brain intervals.
const (
	StateOpen   = "open"
	StateClosed = "closed"
	StateReaped = "reaped"
)

// Entry is one replicated ticket-journal record. Keys are namespaced:
// "t/<ticket>" for tickets, "a/<job>/<subjob>" for allocations,
// "o/<job>/<subjob>" for orphans.
type Entry struct {
	Key  string `json:"key"`
	Kind string `json:"kind"`
	// Origin is the replica whose broker created the entry; Owner is the
	// replica currently responsible for settling it. They differ after a
	// hand-off: the leader reassigns a dead replica's open entries to a
	// live peer, whose reaper cancels the underlying LRM jobs.
	Origin string `json:"origin"`
	Owner  string `json:"owner"`
	// ReqKey is the federation-wide idempotency key (tickets only); the
	// at-most-once invariant is "<= 1 committed ticket per req key".
	ReqKey string `json:"req_key,omitempty"`
	// JobID and Committed record a ticket's outcome.
	JobID     string `json:"job_id,omitempty"`
	Committed bool   `json:"committed,omitempty"`
	// RM and Contact locate the LRM job to cancel (allocs and orphans).
	RM      string `json:"rm,omitempty"`
	Contact string `json:"contact,omitempty"`
	State   string `json:"state"`
	// Rev is the per-key revision: bumped by every local mutation, it
	// orders copies of the same entry during merge.
	Rev int `json:"rev"`
	// Seq is the leader-assigned global order (0 = not yet sequenced).
	Seq int `json:"seq,omitempty"`
	// At is the virtual time of the last transition; HandoffAt is set
	// when the leader reassigns the entry after its origin died.
	At        time.Duration `json:"at"`
	HandoffAt time.Duration `json:"handoff_at,omitempty"`
}

// stateRank orders states for merge: an entry never goes back to open.
func stateRank(s string) int {
	switch s {
	case StateClosed:
		return 1
	case StateReaped:
		return 2
	}
	return 0
}

// supersedes reports whether a is a strictly newer copy of the same key
// than b.
func supersedes(a, b Entry) bool {
	if a.Rev != b.Rev {
		return a.Rev > b.Rev
	}
	return stateRank(a.State) > stateRank(b.State)
}

// journal is one replica's copy of the federation ticket journal: an
// entry map plus, on the leader, the globally ordered update log that
// heartbeats broadcast. Followers buffer local mutations in unacked and
// push them to the leader; an entry leaves unacked once it is observed
// back with a leader-assigned sequence number.
type journal struct {
	entries map[string]Entry
	// open indexes the keys whose stored entry is StateOpen. Closed and
	// reaped entries stay in entries for merge monotonicity, so the
	// per-event queries (openOwnedBy, allocKeysForJob) walk this index
	// instead: their cost follows the open entries, not the journal's
	// whole history. put keeps it in step with entries.
	open map[string]struct{}
	// log is the leader-ordered broadcast stream: every update the
	// leader accepts, in acceptance order. Followers receive log
	// suffixes piggybacked on heartbeats.
	log     []Entry
	nextSeq int
	unacked []Entry
	// logged tracks, per key, the highest revision already appended to
	// the log (leader only) — the dedup that keeps re-pushed copies from
	// being ordered twice without losing genuinely new transitions.
	logged map[string]int
}

func newJournal() *journal {
	return &journal{
		entries: make(map[string]Entry),
		open:    make(map[string]struct{}),
		nextSeq: 1,
		logged:  make(map[string]int),
	}
}

// put stores e under its key and keeps the open index in step with
// its state. Every write to entries goes through here.
func (j *journal) put(e Entry) {
	j.entries[e.Key] = e
	if e.State == StateOpen {
		j.open[e.Key] = struct{}{}
	} else {
		delete(j.open, e.Key)
	}
}

// upsert applies a local mutation: the entry's revision is bumped past
// the stored copy's and the update is buffered for the leader. mutate
// receives the current copy (zero Entry if absent) and returns the new
// one; returning the input unchanged cancels the mutation.
func (j *journal) upsert(key string, now time.Duration, mutate func(Entry) Entry) {
	cur := j.entries[key]
	next := mutate(cur)
	if next == cur {
		return
	}
	next.Key = key
	next.Rev = cur.Rev + 1
	next.Seq = cur.Seq
	next.At = now
	j.put(next)
	j.unacked = append(j.unacked, next)
}

// get returns the stored copy of key.
func (j *journal) get(key string) (Entry, bool) {
	e, ok := j.entries[key]
	return e, ok
}

// merge folds a remote copy in, keeping the more advanced revision and
// the maximum sequence number. Reports whether the stored entry changed.
func (j *journal) merge(e Entry) bool {
	cur, ok := j.entries[e.Key]
	if ok && e.Seq < cur.Seq {
		e.Seq = cur.Seq
	}
	if !ok || supersedes(e, cur) {
		j.put(e)
		return true
	}
	if e.Seq > cur.Seq {
		cur.Seq = e.Seq
		j.put(cur)
	}
	return false
}

// applyBroadcast merges a heartbeat's log suffix and drains unacked
// entries the leader has demonstrably sequenced (stored copy at or past
// the buffered revision, with a sequence number).
func (j *journal) applyBroadcast(updates []Entry) {
	for _, e := range updates {
		j.merge(e)
	}
	kept := j.unacked[:0]
	for _, u := range j.unacked {
		cur, ok := j.entries[u.Key]
		if ok && cur.Seq > 0 && cur.Rev >= u.Rev {
			continue
		}
		kept = append(kept, u)
	}
	j.unacked = kept
}

// leaderAccept sequences one update into the broadcast log (leader
// only). Revisions already in the log are dropped, so duplicate pushes
// of the same copy are ordered exactly once.
func (j *journal) leaderAccept(e Entry) {
	cur, ok := j.entries[e.Key]
	if ok && supersedes(cur, e) {
		// A newer copy is already stored; order that one instead.
		e = cur
	}
	if j.logged[e.Key] >= e.Rev {
		return
	}
	e.Seq = j.nextSeq
	j.nextSeq++
	j.put(e)
	j.logged[e.Key] = e.Rev
	j.log = append(j.log, e)
}

// leaderFlush sequences this replica's own buffered mutations into the
// log (leader only) and clears the buffer.
func (j *journal) leaderFlush() {
	sortBatch(j.unacked)
	for _, u := range j.unacked {
		j.leaderAccept(u)
	}
	j.unacked = j.unacked[:0]
}

// sortBatch orders buffered updates by (At, Key, Rev). Goroutines running
// at the same virtual instant append to the buffer in whatever order the
// scheduler ran them; sequencing must not depend on that order.
func sortBatch(batch []Entry) {
	sort.Slice(batch, func(a, b int) bool {
		if batch[a].At != batch[b].At {
			return batch[a].At < batch[b].At
		}
		if batch[a].Key != batch[b].Key {
			return batch[a].Key < batch[b].Key
		}
		return batch[a].Rev < batch[b].Rev
	})
}

// becomeLeader rebuilds the broadcast log from the local entry map —
// the new baseline every follower re-receives (merge is idempotent, so
// re-broadcast is safe). Entries are ordered by known sequence then key,
// and re-sequenced densely.
func (j *journal) becomeLeader() {
	keys := make([]string, 0, len(j.entries))
	for k := range j.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ea, eb := j.entries[keys[a]], j.entries[keys[b]]
		if ea.Seq != eb.Seq {
			return ea.Seq < eb.Seq
		}
		return keys[a] < keys[b]
	})
	j.log = j.log[:0]
	j.nextSeq = 1
	j.logged = make(map[string]int, len(keys))
	for _, k := range keys {
		e := j.entries[k]
		e.Seq = j.nextSeq
		j.nextSeq++
		j.put(e)
		j.logged[k] = e.Rev
		j.log = append(j.log, e)
	}
	// The new leader's own buffered updates are sequenced in the rebuild
	// (they are in the entry map already).
	j.unacked = j.unacked[:0]
}

// logSuffix returns the broadcast log from offset on, with the current
// log length.
func (j *journal) logSuffix(from int) ([]Entry, int) {
	if from < 0 || from > len(j.log) {
		from = 0
	}
	out := make([]Entry, len(j.log)-from)
	copy(out, j.log[from:])
	return out, len(j.log)
}

// pending snapshots the unacked local updates in deterministic order.
func (j *journal) pending() []Entry {
	out := make([]Entry, len(j.unacked))
	copy(out, j.unacked)
	sortBatch(out)
	return out
}

// snapshot returns every entry sorted by key: the whole history, for the
// merged audit journal. The per-event queries below use the open index.
func (j *journal) snapshot() []Entry {
	out := make([]Entry, 0, len(j.entries))
	for _, e := range j.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// openOwnedBy returns open entries owned by the given replica, sorted by
// key.
func (j *journal) openOwnedBy(owner string) []Entry {
	var out []Entry
	for k := range j.open {
		if e := j.entries[k]; e.Owner == owner {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key < out[b].Key })
	return out
}

// allocKeysForJob lists open alloc entries belonging to a DUROC job id,
// sorted.
func (j *journal) allocKeysForJob(job string) []string {
	prefix := "a/" + job + "/"
	var out []string
	for k := range j.open {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
