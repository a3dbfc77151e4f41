package vtime

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCloseWhileRecvTimeoutPending(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "closing", 0)
	err := s.Run("main", func() {
		s.AfterFunc(2*time.Second, func() { ch.Close() })
		_, res := ch.RecvTimeout(time.Hour)
		if res != RecvClosed {
			t.Errorf("res = %v, want closed", res)
		}
		if s.Now() != 2*time.Second {
			t.Errorf("woke at %v, want 2s", s.Now())
		}
		// The cancelled hour-long timer must not hold the clock hostage:
		// the simulation ends now, not at t=1h.
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if now := s.Now(); now != 2*time.Second {
		t.Fatalf("simulation ended at %v, want 2s", now)
	}
}

func TestAfterFuncCascade(t *testing.T) {
	s := New()
	var order []string
	var mu sync.Mutex
	note := func(tag string) {
		mu.Lock()
		order = append(order, tag)
		mu.Unlock()
	}
	done := NewEvent(s, "done")
	s.AfterFunc(time.Second, func() {
		note("outer")
		s.Sleep(time.Second) // AfterFunc bodies may block in virtual time
		note("outer+1s")
		s.AfterFunc(time.Second, func() {
			note("inner")
			done.Set()
		})
	})
	err := s.Run("main", func() {
		done.Wait()
		if s.Now() != 3*time.Second {
			t.Errorf("cascade finished at %v, want 3s", s.Now())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"outer", "outer+1s", "inner"}
	for i, tag := range want {
		if i >= len(order) || order[i] != tag {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestWaitGroupConcurrentAddDone(t *testing.T) {
	s := New()
	wg := NewWaitGroup(s)
	const spawners, each = 8, 25
	wg.Add(spawners)
	released := false
	err := s.Run("main", func() {
		for i := 0; i < spawners; i++ {
			s.Go("spawner", func() {
				for j := 0; j < each; j++ {
					wg.Add(1)
					s.Go("worker", func() {
						s.Sleep(time.Duration(1+j%7) * time.Millisecond)
						wg.Done()
					})
				}
				wg.Done()
			})
		}
		wg.Wait()
		released = true
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !released {
		t.Fatal("WaitGroup never released")
	}
	if wg.Count() != 0 {
		t.Fatalf("count = %d", wg.Count())
	}
}

func TestMessageConservationUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in short mode")
	}
	// Producers and consumers over a shared buffered channel with random
	// virtual delays: every message sent is received exactly once.
	s := NewSeeded(99)
	ch := NewChan[int](s, "load", 16)
	const producers, perProducer, consumers = 6, 100, 4
	var sent, received atomic.Int64
	prodWG := NewWaitGroup(s)
	prodWG.Add(producers)
	err := s.Run("closer", func() {
		for p := 0; p < producers; p++ {
			s.Go("producer", func() {
				defer prodWG.Done()
				for i := 0; i < perProducer; i++ {
					s.Sleep(time.Duration(s.RandIntn(5)) * time.Millisecond)
					ch.Send(1)
					sent.Add(1)
				}
			})
		}
		for c := 0; c < consumers; c++ {
			s.Go("consumer", func() {
				for {
					_, ok := ch.Recv()
					if !ok {
						return
					}
					received.Add(1)
					s.Sleep(time.Duration(s.RandIntn(3)) * time.Millisecond)
				}
			})
		}
		prodWG.Wait()
		ch.Close()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if sent.Load() != producers*perProducer {
		t.Fatalf("sent = %d", sent.Load())
	}
	if received.Load() != sent.Load() {
		t.Fatalf("received %d of %d messages", received.Load(), sent.Load())
	}
}

func TestThousandsOfProcsSettle(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in short mode")
	}
	s := New()
	const n = 5000
	var count atomic.Int64
	wg := NewWaitGroup(s)
	wg.Add(n)
	// Spawn from inside a simulated process: while the spawner is
	// runnable the clock cannot advance, so every sleep is relative to
	// t=0. Spawning from the real test goroutine would race with the
	// clock.
	err := s.Run("main", func() {
		for i := 0; i < n; i++ {
			d := time.Duration(i%100) * time.Millisecond
			s.Go("p", func() {
				s.Sleep(d)
				count.Add(1)
				wg.Done()
			})
		}
		wg.Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if count.Load() != n {
		t.Fatalf("only %d of %d procs ran", count.Load(), n)
	}
	if s.Now() != 99*time.Millisecond {
		t.Fatalf("clock = %v, want 99ms", s.Now())
	}
}

func TestRecvAfterTimedOutWaiterStillWorks(t *testing.T) {
	// A waiter that timed out leaves a dead entry in the receive queue;
	// later senders must skip it and reach live receivers.
	s := New()
	ch := NewChan[int](s, "stale", 0)
	err := s.Run("main", func() {
		if _, res := ch.RecvTimeout(time.Second); res != RecvTimedOut {
			t.Errorf("first recv = %v", res)
		}
		got := NewChan[int](s, "got", 1)
		s.Go("receiver", func() {
			v, _ := ch.Recv()
			got.Send(v)
		})
		s.Go("sender", func() {
			s.Sleep(time.Second)
			ch.Send(42)
		})
		v, _ := got.Recv()
		if v != 42 {
			t.Errorf("received %d", v)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
