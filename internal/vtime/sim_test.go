package vtime

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New()
	var end time.Duration
	err := s.Run("main", func() {
		s.Sleep(3 * time.Second)
		end = s.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 3*time.Second {
		t.Fatalf("Now after sleep = %v, want 3s", end)
	}
}

func TestSleepZeroOrNegativeReturnsImmediately(t *testing.T) {
	s := New()
	err := s.Run("main", func() {
		s.Sleep(0)
		s.Sleep(-time.Second)
		if got := s.Now(); got != 0 {
			t.Errorf("Now = %v, want 0", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestConcurrentSleepsOverlap(t *testing.T) {
	s := New()
	wg := NewWaitGroup(s)
	wg.Add(3)
	var end time.Duration
	err := s.Run("main", func() {
		for i := 0; i < 3; i++ {
			s.Go("sleeper", func() {
				s.Sleep(5 * time.Second)
				wg.Done()
			})
		}
		wg.Wait()
		end = s.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 5*time.Second {
		t.Fatalf("three parallel 5s sleeps ended at %v, want 5s", end)
	}
}

func TestSequentialSleepsAccumulate(t *testing.T) {
	s := New()
	err := s.Run("main", func() {
		for i := 0; i < 10; i++ {
			s.Sleep(time.Second)
		}
		if got := s.Now(); got != 10*time.Second {
			t.Errorf("Now = %v, want 10s", got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTimerFiringOrderIsDeterministic(t *testing.T) {
	s := New()
	var mu sync.Mutex
	var order []int
	wg := NewWaitGroup(s)
	// Unique delays: with ties the wake order would depend on which
	// goroutine reached Sleep first, which the Go scheduler decides.
	delays := []time.Duration{5, 3, 8, 1, 4, 9, 2}
	wg.Add(len(delays))
	s.Go("main", func() {
		// Spawn from inside the simulation so the clock stays at zero
		// until every sleeper is registered.
		for i, d := range delays {
			i, d := i, d
			s.Go("sleeper", func() {
				s.Sleep(d * time.Second)
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				wg.Done()
			})
		}
		wg.Wait()
	})
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// Expected: sorted by (delay, spawn order): indices 3(1s) 6(2s) 1(3s) 4(3s) 0(5s) 2(8s) 5(9s)
	want := []int{3, 6, 1, 4, 0, 2, 5}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("got %d wakeups, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing order = %v, want %v", order, want)
		}
	}
}

func TestAfterFuncRunsAtScheduledTime(t *testing.T) {
	s := New()
	var fired time.Duration
	done := NewEvent(s, "done")
	s.AfterFunc(7*time.Second, func() {
		fired = s.Now()
		done.Set()
	})
	err := s.Run("main", func() { done.Wait() })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 7*time.Second {
		t.Fatalf("AfterFunc fired at %v, want 7s", fired)
	}
}

func TestAfterFuncStopPreventsRun(t *testing.T) {
	s := New()
	ran := false
	timer := s.AfterFunc(5*time.Second, func() { ran = true })
	err := s.Run("main", func() {
		if !timer.Stop() {
			t.Error("Stop returned false for pending timer")
		}
		if timer.Stop() {
			t.Error("second Stop returned true")
		}
		s.Sleep(10 * time.Second)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("stopped timer still ran")
	}
}

// A cancelled entry lets go of its callback at once, so Reset must bring it
// back from the handle: a stopped or fired timer that is reset runs again,
// at the new instant, for both kinds of callback.
func TestTimerResetRearmsStoppedAndFiredTimers(t *testing.T) {
	for _, passive := range []bool{false, true} {
		s := New()
		var ran []time.Duration
		after := s.AfterFunc
		if passive {
			after = s.AfterFuncPassive
		}
		timer := after(5*time.Second, func() { ran = append(ran, s.Now()) })
		err := s.Run("main", func() {
			if !timer.Reset(2 * time.Second) {
				t.Error("Reset returned false for a pending timer")
			}
			timer.Stop()
			if timer.Reset(3 * time.Second) {
				t.Error("Reset returned true for a stopped timer")
			}
			s.Sleep(4 * time.Second) // fires at 3 s, once
			if timer.Reset(time.Second) {
				t.Error("Reset returned true for a fired timer")
			}
			s.Sleep(4 * time.Second) // and again at 5 s
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(ran) != 2 || ran[0] != 3*time.Second || ran[1] != 5*time.Second {
			t.Errorf("passive=%t: callback ran at %v, want [3s 5s]", passive, ran)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "never", 0)
	s.Go("blocked", func() { ch.Recv() })
	err := s.Wait()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Wait error = %v, want *DeadlockError", err)
	}
	if len(de.Blocked) != 1 || !strings.Contains(de.Blocked[0], "never") {
		t.Fatalf("deadlock report %q does not name channel", de.Error())
	}
}

func TestDeadlockReportsMultipleWaiters(t *testing.T) {
	s := New()
	a := NewChan[int](s, "chan-a", 0)
	b := NewChan[int](s, "chan-b", 0)
	err := s.Run("main", func() {
		s.Go("p1", func() { a.Recv() })
		s.Go("p2", func() { b.Recv() })
	})
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Wait error = %v, want *DeadlockError", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("blocked = %v, want 2 entries", de.Blocked)
	}
}

func TestDaemonDoesNotKeepSimulationAlive(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "daemon-inbox", 0)
	s.GoDaemon("server", func() {
		for {
			if _, ok := ch.Recv(); !ok {
				return
			}
		}
	})
	var end time.Duration
	err := s.Run("main", func() {
		s.Sleep(time.Second)
		ch.Send(42)
		end = s.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v (daemon should not deadlock the sim)", err)
	}
	if end != time.Second {
		t.Fatalf("end = %v, want 1s", end)
	}
}

func TestDaemonSleepLoopDoesNotSpinClockAfterCompletion(t *testing.T) {
	s := New()
	s.GoDaemon("ticker", func() {
		for {
			s.Sleep(time.Millisecond)
		}
	})
	err := s.Run("main", func() { s.Sleep(time.Second) })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The daemon must not advance the clock after completion. Give the
	// runtime a moment, then verify the clock is frozen.
	now1 := s.Now()
	time.Sleep(10 * time.Millisecond)
	if now2 := s.Now(); now2 != now1 {
		t.Fatalf("clock advanced after completion: %v -> %v", now1, now2)
	}
}

func TestWaitBeforeSpawnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Wait before spawn did not panic")
		}
	}()
	New().Wait()
}

func TestSleepUntil(t *testing.T) {
	s := New()
	err := s.Run("main", func() {
		s.SleepUntil(4 * time.Second)
		if s.Now() != 4*time.Second {
			t.Errorf("Now = %v, want 4s", s.Now())
		}
		s.SleepUntil(2 * time.Second) // in the past: no-op
		if s.Now() != 4*time.Second {
			t.Errorf("Now after past SleepUntil = %v, want 4s", s.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestGoAfterCompletionIsIgnored(t *testing.T) {
	s := New()
	if err := s.Run("main", func() {}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ran := make(chan struct{})
	s.Go("late", func() { close(ran) })
	select {
	case <-ran:
		t.Fatal("process spawned after completion ran")
	case <-time.After(10 * time.Millisecond):
	}
}

func TestSpawnTreeCompletes(t *testing.T) {
	s := New()
	var mu sync.Mutex
	count := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		mu.Lock()
		count++
		mu.Unlock()
		if depth == 0 {
			return
		}
		s.Sleep(time.Duration(depth) * time.Millisecond)
		for i := 0; i < 2; i++ {
			d := depth - 1
			s.Go("child", func() { spawn(d) })
		}
	}
	s.Go("root", func() { spawn(5) })
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if count != 63 { // 2^6 - 1 nodes
		t.Fatalf("spawned %d processes, want 63", count)
	}
}

func TestRandDeterministicAcrossSeeds(t *testing.T) {
	a, b := NewSeeded(42), NewSeeded(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.RandFloat64(), b.RandFloat64(); av != bv {
			t.Fatalf("same-seed kernels diverge at draw %d: %v vs %v", i, av, bv)
		}
	}
	c := NewSeeded(7)
	same := true
	d := NewSeeded(8)
	for i := 0; i < 10; i++ {
		if c.RandFloat64() != d.RandFloat64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestManyTimersSortedFiring(t *testing.T) {
	s := New()
	var mu sync.Mutex
	var times []time.Duration
	n := 500
	wg := NewWaitGroup(s)
	wg.Add(n)
	s.Go("main", func() {
		for i := 0; i < n; i++ {
			d := time.Duration((i*7919)%1000) * time.Millisecond
			s.Go("sleeper", func() {
				s.Sleep(d)
				mu.Lock()
				times = append(times, s.Now())
				mu.Unlock()
				wg.Done()
			})
		}
		wg.Wait()
	})
	if err := s.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
		t.Fatal("wakeup times are not monotonically non-decreasing")
	}
	if len(times) != n {
		t.Fatalf("got %d wakeups, want %d", len(times), n)
	}
}
