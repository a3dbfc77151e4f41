package federation

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// naiveOpenOwnedBy and naiveAllocKeysForJob answer the journal's per-event
// queries by filtering the whole sorted history: the definition the open
// index must agree with.
func naiveOpenOwnedBy(j *journal, owner string) []Entry {
	var out []Entry
	for _, e := range j.snapshot() {
		if e.State == StateOpen && e.Owner == owner {
			out = append(out, e)
		}
	}
	return out
}

func naiveAllocKeysForJob(j *journal, job string) []string {
	var out []string
	for _, e := range j.snapshot() {
		if e.State == StateOpen && strings.HasPrefix(e.Key, "a/"+job+"/") {
			out = append(out, e.Key)
		}
	}
	return out
}

// TestOpenIndexMatchesHistory drives random sequences of every journal
// write — local mutations, merges, leader sequencing, broadcasts and
// leadership changes — and after each step holds both per-event queries to
// a filter over the full snapshot, for every owner and every job.
func TestOpenIndexMatchesHistory(t *testing.T) {
	owners := []string{"fed00", "fed01", "fed02", "fed03"}
	jobs := []string{"j1", "j2", "j12", "j3"}
	states := []string{StateOpen, StateClosed, StateReaped}
	var keys []string
	for _, job := range jobs {
		keys = append(keys, "t/"+job+"#req", "a/"+job+"/s0", "a/"+job+"/s1", "o/"+job+"/s0")
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randEntry := func() Entry {
			key := keys[rng.Intn(len(keys))]
			return Entry{
				Key:   key,
				Kind:  KindAlloc,
				Owner: owners[rng.Intn(len(owners))],
				State: states[rng.Intn(len(states))],
				Rev:   rng.Intn(6),
				Seq:   rng.Intn(4),
				At:    time.Duration(rng.Intn(10)) * time.Second,
			}
		}
		// peer is a second replica whose log and buffer feed j.
		j, peer := newJournal(), newJournal()
		for step := 0; step < 300; step++ {
			var op string
			switch rng.Intn(7) {
			case 0:
				op = "upsert"
				owner, state := owners[rng.Intn(len(owners))], states[rng.Intn(len(states))]
				keep := rng.Intn(5) == 0
				j.upsert(keys[rng.Intn(len(keys))], time.Duration(step)*time.Second, func(e Entry) Entry {
					if keep {
						return e
					}
					e.Owner, e.State = owner, state
					return e
				})
			case 1:
				op = "merge"
				j.merge(randEntry())
			case 2:
				op = "leaderAccept"
				j.leaderAccept(randEntry())
			case 3:
				op = "leaderFlush"
				j.leaderFlush()
			case 4:
				op = "applyBroadcast"
				peer.leaderAccept(randEntry())
				peer.upsert(keys[rng.Intn(len(keys))], time.Duration(step)*time.Second, func(e Entry) Entry {
					e.Owner, e.State = owners[rng.Intn(len(owners))], states[rng.Intn(len(states))]
					return e
				})
				peer.leaderFlush()
				suffix, _ := peer.logSuffix(rng.Intn(3))
				j.applyBroadcast(suffix)
			case 5:
				op = "becomeLeader"
				j.becomeLeader()
			case 6:
				op = "push"
				for _, e := range j.pending() {
					peer.leaderAccept(e)
				}
				suffix, _ := peer.logSuffix(0)
				j.applyBroadcast(suffix)
			}
			for _, owner := range append(owners, "nobody") {
				if got, want := j.openOwnedBy(owner), naiveOpenOwnedBy(j, owner); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d (%s): openOwnedBy(%s) = %+v, want %+v", seed, step, op, owner, got, want)
				}
			}
			for _, job := range append(jobs, "j") {
				if got, want := j.allocKeysForJob(job), naiveAllocKeysForJob(j, job); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d (%s): allocKeysForJob(%s) = %v, want %v", seed, step, op, job, got, want)
				}
			}
		}
	}
}

// bytesPerCall reports what one call of f allocates in bytes, averaged
// over runs.
func bytesPerCall(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// The reaper tick and a job's end each ask the journal for a handful of
// open entries; what they pay must follow those, not the closed history a
// long run accumulates (kept for merge monotonicity). Copying 10 000
// entries is about 2 MB a call.
func TestJournalQueriesCostWhatIsOpen(t *testing.T) {
	j := newJournal()
	for i := 0; i < 10000; i++ {
		j.merge(Entry{Key: fmt.Sprintf("a/old%05d/s0", i), Kind: KindAlloc, Owner: "fed01", State: StateClosed, Rev: 2, Seq: i + 1})
	}
	var want []string
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("a/live/s%d", i)
		want = append(want, key)
		j.merge(Entry{Key: key, Kind: KindAlloc, Owner: "fed01", State: StateOpen, Rev: 1})
	}
	sort.Strings(want)
	if got := j.allocKeysForJob("live"); !reflect.DeepEqual(got, want) {
		t.Fatalf("allocKeysForJob(live) = %v, want %v", got, want)
	}
	if got := j.openOwnedBy("fed01"); len(got) != 8 {
		t.Fatalf("openOwnedBy(fed01) returned %d entries, want 8", len(got))
	}
	const limit = 8 << 10
	if b := bytesPerCall(50, func() { j.openOwnedBy("fed01") }); b >= limit {
		t.Errorf("openOwnedBy allocates %.0f bytes a call over 10 008 entries, want under %d", b, limit)
	}
	if b := bytesPerCall(50, func() { j.allocKeysForJob("live") }); b >= limit {
		t.Errorf("allocKeysForJob allocates %.0f bytes a call over 10 008 entries, want under %d", b, limit)
	}
}
