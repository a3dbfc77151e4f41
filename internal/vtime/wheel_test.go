package vtime

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// popBoth pops one entry from each queue and asserts they agree. The oracle
// property: the wheel must deliver exactly the heap's (when, seq) order.
func popBoth(t *testing.T, wheel *timerWheel, heapq *heapQueue, step int) (*timerEntry, bool) {
	t.Helper()
	we := wheel.pop()
	he := heapq.pop()
	if (we == nil) != (he == nil) {
		t.Fatalf("step %d: wheel pop = %v, heap pop = %v", step, we, he)
	}
	if we == nil {
		return nil, false
	}
	if we.when != he.when || we.seq != he.seq {
		t.Fatalf("step %d: wheel popped (when=%v seq=%d), heap popped (when=%v seq=%d)",
			step, we.when, we.seq, he.when, he.seq)
	}
	return we, true
}

// TestWheelMatchesHeapOracle drives both timer engines through randomized
// push/pop interleavings spanning every placement class — same-instant
// collisions, sub-tick deltas, mid-wheel horizons, far-future deadlines in
// overflow epochs, and past-due entries — and asserts identical pop order.
func TestWheelMatchesHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wheel := newTimerWheel()
		heapq := newHeapQueue()
		var seq uint64
		now := time.Duration(0)
		push := func(when time.Duration) {
			seq++
			// Distinct entry objects per queue: the heap owns the index field.
			wheel.push(&timerEntry{when: when, seq: seq})
			heapq.push(&timerEntry{when: when, seq: seq})
		}
		for i := 0; i < 4000; i++ {
			switch rng.Intn(12) {
			case 0:
				push(now) // same-instant collision
			case 1:
				push(now + time.Duration(rng.Intn(8192))) // inside one tick
			case 2:
				push(now + time.Duration(rng.Intn(1000))*time.Microsecond)
			case 3:
				push(now + time.Duration(rng.Intn(1000))*time.Millisecond)
			case 4:
				push(now + time.Duration(1+rng.Intn(90))*time.Minute)
			case 5:
				push(now + time.Duration(1+rng.Intn(200))*time.Hour) // overflow epochs
			case 6:
				push(now - time.Duration(rng.Intn(int(now)+1))) // past due
			default:
				e, ok := popBoth(t, wheel, heapq, i)
				if ok && e.when > now {
					now = e.when // emulate the kernel clock
				}
			}
			if wheel.len() != heapq.len() {
				t.Fatalf("step %d: wheel len %d != heap len %d", i, wheel.len(), heapq.len())
			}
		}
		for {
			e, ok := popBoth(t, wheel, heapq, -1)
			if !ok {
				break
			}
			if e.when > now {
				now = e.when
			}
		}
	}
}

// engineScript runs a deterministic random program of AfterFunc, Stop,
// Reset, and Sleep against one engine and returns the multiset of fired
// callbacks (label@instant), the Stop/Reset result sequence, and the
// kernel's TimersFired counter.
func engineScript(t *testing.T, engine string, seed int64) (fired []string, results []bool, count int64) {
	t.Helper()
	s := newSimOn(engine, seed)
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed*31 + 7))
	randDur := func() time.Duration {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return -time.Duration(rng.Intn(1000)) // past due
		case 2:
			return time.Duration(rng.Intn(100)) * time.Millisecond // collisions
		case 3:
			return time.Duration(rng.Intn(100000)) * time.Microsecond
		case 4:
			return time.Duration(1+rng.Intn(50)) * time.Hour // overflow horizon
		default:
			return time.Duration(rng.Intn(int(10 * time.Second)))
		}
	}
	err := s.Run("driver", func() {
		var timers []*Timer
		for i := 0; i < 400; i++ {
			switch rng.Intn(6) {
			case 0, 1, 2:
				label := fmt.Sprintf("t%d", i)
				tm := s.AfterFunc(randDur(), func() {
					mu.Lock()
					fired = append(fired, fmt.Sprintf("%s@%v", label, s.Now()))
					mu.Unlock()
				})
				timers = append(timers, tm)
			case 3:
				if len(timers) > 0 {
					results = append(results, timers[rng.Intn(len(timers))].Stop())
				}
			case 4:
				if len(timers) > 0 {
					results = append(results, timers[rng.Intn(len(timers))].Reset(randDur()))
				}
			default:
				s.Sleep(time.Duration(rng.Intn(int(time.Second))))
			}
		}
		s.Sleep(100 * time.Hour) // let far-future survivors fire
	})
	if err != nil {
		t.Fatalf("engine %v seed %d: %v", engine, seed, err)
	}
	// Same-instant callbacks race within their instant on both engines;
	// compare as a sorted multiset.
	sort.Strings(fired)
	return fired, results, s.TimersFired()
}

// TestKernelEnginesEquivalentRandomOps runs the same randomized
// AfterFunc/Stop/Reset program on the heap and wheel kernels and demands
// identical fired multisets, identical Stop/Reset return sequences, and
// identical TimersFired counts.
func TestKernelEnginesEquivalentRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		hFired, hResults, hCount := engineScript(t, "heap", seed)
		wFired, wResults, wCount := engineScript(t, "wheel", seed)
		if hCount != wCount {
			t.Fatalf("seed %d: TimersFired heap=%d wheel=%d", seed, hCount, wCount)
		}
		if len(hFired) != len(wFired) {
			t.Fatalf("seed %d: fired count heap=%d wheel=%d", seed, len(hFired), len(wFired))
		}
		for i := range hFired {
			if hFired[i] != wFired[i] {
				t.Fatalf("seed %d: fired[%d] heap=%q wheel=%q", seed, i, hFired[i], wFired[i])
			}
		}
		if len(hResults) != len(wResults) {
			t.Fatalf("seed %d: result count heap=%d wheel=%d", seed, len(hResults), len(wResults))
		}
		for i := range hResults {
			if hResults[i] != wResults[i] {
				t.Fatalf("seed %d: stop/reset result[%d] heap=%v wheel=%v", seed, i, hResults[i], wResults[i])
			}
		}
	}
}

// TestWheelFarFutureCancelDoesNotStallClock mirrors the heap-era
// regression: a cancelled far-future timer (deep in an overflow epoch)
// must neither fire nor hold the clock back.
func TestWheelFarFutureCancelDoesNotStallClock(t *testing.T) {
	s := New()
	firedFar := false
	err := s.Run("main", func() {
		tm := s.AfterFunc(1000*time.Hour, func() { firedFar = true })
		s.Sleep(time.Millisecond)
		if !tm.Stop() {
			t.Error("Stop returned false for pending far-future timer")
		}
		s.Sleep(time.Millisecond)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if firedFar {
		t.Fatal("cancelled far-future timer fired")
	}
	if got := s.Now(); got != 2*time.Millisecond {
		t.Fatalf("Now = %v, want 2ms", got)
	}
}

// FuzzTimerWheel feeds arbitrary op streams to the wheel with the heap as
// oracle. Each op consumes three bytes: an opcode and a 16-bit operand
// that is exponentially scaled so the corpus reaches every wheel level and
// the overflow calendar.
func FuzzTimerWheel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 255, 255, 3, 0, 0})
	f.Add([]byte{1, 0, 16, 1, 0, 16, 3, 0, 0, 3, 0, 0})
	f.Add([]byte{2, 255, 0, 0, 0, 0, 3, 0, 0, 1, 7, 7})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		wheel := newTimerWheel()
		heapq := newHeapQueue()
		var seq uint64
		now := time.Duration(0)
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 4
			operand := int64(data[i+1]) | int64(data[i+2])<<8
			switch op {
			case 0, 1, 2:
				// Exponential scaling: low byte picks a shift, so 16 bits
				// of operand cover sub-tick through multi-epoch horizons.
				shift := uint(operand % 48)
				when := now + time.Duration((operand>>4)<<shift)
				seq++
				wheel.push(&timerEntry{when: when, seq: seq})
				heapq.push(&timerEntry{when: when, seq: seq})
			case 3:
				we := wheel.pop()
				he := heapq.pop()
				if (we == nil) != (he == nil) {
					t.Fatalf("op %d: wheel pop %v, heap pop %v", i, we, he)
				}
				if we != nil {
					if we.when != he.when || we.seq != he.seq {
						t.Fatalf("op %d: wheel (when=%v seq=%d) heap (when=%v seq=%d)",
							i, we.when, we.seq, he.when, he.seq)
					}
					if we.when > now {
						now = we.when
					}
				}
			}
		}
		for {
			we := wheel.pop()
			he := heapq.pop()
			if (we == nil) != (he == nil) {
				t.Fatalf("drain: wheel pop %v, heap pop %v", we, he)
			}
			if we == nil {
				break
			}
			if we.when != he.when || we.seq != he.seq {
				t.Fatalf("drain: wheel (when=%v seq=%d) heap (when=%v seq=%d)",
					we.when, we.seq, he.when, he.seq)
			}
		}
	})
}

// TestWheelLevelBoundaryAliasRegression pins the shrunk reproduction of
// the classic hierarchical-wheel off-by-one this refactor surfaced (and
// fixed): an entry whose tick delta from the cursor is below a level's
// span but whose unit-index distance at that level is exactly 64. Raw
// delta-based placement files it at that level, where its absolute slot
// index aliases onto the cursor's own occupancy bit; the next advance then
// drains the cursor slot while place() re-appends into the same backing
// array, corrupting it. Index-distance placement must send it one level
// up.
//
// The constants reconstruct the original failure: cursor at level-2 unit
// 716 (phase +1000 ticks), entry at level-2 unit 780 — tick delta 261144 <
// 64³ = 262144, unit distance exactly 64, slot index 780 mod 64 = 12 =
// 716 mod 64.
func TestWheelLevelBoundaryAliasRegression(t *testing.T) {
	const tick = int64(1) << wheelTickShift
	wheel := newTimerWheel()
	heapq := newHeapQueue()
	push := func(when time.Duration, seq uint64) {
		wheel.push(&timerEntry{when: when, seq: seq})
		heapq.push(&timerEntry{when: when, seq: seq})
	}
	// Advance the cursor to level-2 unit 716 with a non-zero phase.
	cursorTick := (716*64*64 + 1000) * tick
	push(time.Duration(cursorTick), 1)
	if we, he := wheel.pop(), heapq.pop(); we.seq != he.seq {
		t.Fatalf("setup pop: wheel seq %d, heap seq %d", we.seq, he.seq)
	}
	// The aliasing entry, plus a neighbor in the cursor's true slot range
	// so the corrupted-slot variant has something to destroy.
	push(time.Duration(780*64*64*tick), 2)
	push(time.Duration((716*64*64+1010)*tick), 3)
	for i := 0; ; i++ {
		we := wheel.pop()
		he := heapq.pop()
		if (we == nil) != (he == nil) {
			t.Fatalf("pop %d: wheel %v, heap %v", i, we, he)
		}
		if we == nil {
			break
		}
		if we.when != he.when || we.seq != he.seq {
			t.Fatalf("pop %d: wheel (when=%v seq=%d), heap (when=%v seq=%d)",
				i, we.when, we.seq, he.when, he.seq)
		}
	}
}
