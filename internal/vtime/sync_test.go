package vtime

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestWaitGroupReleasesAtZero(t *testing.T) {
	s := New()
	wg := NewWaitGroup(s)
	wg.Add(3)
	var end time.Duration
	err := s.Run("main", func() {
		for i := 1; i <= 3; i++ {
			d := time.Duration(i) * time.Second
			s.Go("worker", func() {
				s.Sleep(d)
				wg.Done()
			})
		}
		wg.Wait()
		end = s.Now()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if end != 3*time.Second {
		t.Fatalf("WaitGroup released at %v, want 3s (slowest worker)", end)
	}
}

func TestWaitGroupWaitOnZeroReturnsImmediately(t *testing.T) {
	s := New()
	wg := NewWaitGroup(s)
	err := s.Run("main", func() {
		wg.Wait()
		if s.Now() != 0 {
			t.Errorf("Wait on zero counter advanced time to %v", s.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWaitGroupWaitTimeout(t *testing.T) {
	s := New()
	wg := NewWaitGroup(s)
	wg.Add(1)
	err := s.Run("main", func() {
		s.Go("slow", func() {
			s.Sleep(10 * time.Second)
			wg.Done()
		})
		if wg.WaitTimeout(2 * time.Second) {
			t.Error("WaitTimeout(2s) reported success with a 10s worker")
		}
		if s.Now() != 2*time.Second {
			t.Errorf("timed out at %v, want 2s", s.Now())
		}
		if !wg.WaitTimeout(time.Hour) {
			t.Error("second WaitTimeout failed")
		}
		if s.Now() != 10*time.Second {
			t.Errorf("released at %v, want 10s", s.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	s := New()
	wg := NewWaitGroup(s)
	err := s.Run("main", func() {
		defer func() {
			if recover() == nil {
				t.Error("negative counter did not panic")
			}
		}()
		wg.Done()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWaitGroupCount(t *testing.T) {
	s := New()
	wg := NewWaitGroup(s)
	err := s.Run("main", func() {
		wg.Add(5)
		if wg.Count() != 5 {
			t.Errorf("Count = %d, want 5", wg.Count())
		}
		wg.Add(-2)
		if wg.Count() != 3 {
			t.Errorf("Count = %d, want 3", wg.Count())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEventBroadcastsToAllWaiters(t *testing.T) {
	s := New()
	ev := NewEvent(s, "go-signal")
	const n = 5
	released := NewChan[time.Duration](s, "released", n)
	err := s.Run("main", func() {
		for i := 0; i < n; i++ {
			s.Go("waiter", func() {
				ev.Wait()
				released.Send(s.Now())
			})
		}
		s.Go("setter", func() {
			s.Sleep(4 * time.Second)
			ev.Set()
		})
		for i := 0; i < n; i++ {
			at, _ := released.Recv()
			if at != 4*time.Second {
				t.Errorf("waiter released at %v, want 4s", at)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEventWaitAfterSetReturnsImmediately(t *testing.T) {
	s := New()
	ev := NewEvent(s, "pre-set")
	err := s.Run("main", func() {
		ev.Set()
		ev.Set() // idempotent
		if !ev.IsSet() {
			t.Error("IsSet false after Set")
		}
		ev.Wait()
		if s.Now() != 0 {
			t.Errorf("Wait on set event advanced time to %v", s.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEventWaitTimeout(t *testing.T) {
	s := New()
	ev := NewEvent(s, "never-set")
	err := s.Run("main", func() {
		if ev.WaitTimeout(3 * time.Second) {
			t.Error("WaitTimeout on unset event reported success")
		}
		if s.Now() != 3*time.Second {
			t.Errorf("timed out at %v, want 3s", s.Now())
		}
		if ev.WaitTimeout(0) {
			t.Error("WaitTimeout(0) on unset event reported success")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestEventAsKillSignalInterruptsSleepLoop(t *testing.T) {
	// The pattern components use for interruptible work loops.
	s := New()
	kill := NewEvent(s, "kill")
	var stoppedAt time.Duration
	err := s.Run("killer", func() {
		s.Go("worker", func() {
			for !kill.WaitTimeout(time.Second) {
				// one "work step" per second until killed
			}
			stoppedAt = s.Now()
		})
		s.Sleep(3500 * time.Millisecond)
		kill.Set()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stoppedAt != 3500*time.Millisecond {
		t.Fatalf("worker stopped at %v, want 3.5s", stoppedAt)
	}
}

// countingName renders a name and counts how often it was asked to.
type countingName struct {
	name  string
	asked int
}

func (n *countingName) String() string { n.asked++; return n.name }

// An Event is named by a Stringer: NewEvent wraps a plain name, in the
// Event's own allocation, and an embedded Event names its owner, whose
// String runs when a deadlock report is written and not before.
func TestEventIsNamedOnDemand(t *testing.T) {
	s := New()
	owner := &countingName{name: "reply-slot:a:client"}
	var embedded struct{ ev Event }
	embedded.ev.Init(s, owner)
	plain := NewEvent(s, "plain-name")
	if got := plain.String(); got != "plain-name" {
		t.Errorf("NewEvent's name reads %q", got)
	}
	if got := new(Event).String(); got != "" {
		t.Errorf("the zero Event's name reads %q", got)
	}
	err := s.Run("main", func() {
		if embedded.ev.WaitTimeout(time.Second) {
			t.Error("unset event reported set")
		}
		if owner.asked != 0 {
			t.Errorf("a wait that ended asked the owner for its name %d time(s)", owner.asked)
		}
		embedded.ev.Wait() // never set: the run deadlocks here
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) || len(dl.Blocked) != 1 || !strings.Contains(dl.Blocked[0], "event reply-slot:a:client") {
		t.Fatalf("Run = %v, want a deadlock naming the owner", err)
	}
	if owner.asked != 1 {
		t.Errorf("the deadlock report asked the owner %d time(s), want 1", owner.asked)
	}
	if allocs := testing.AllocsPerRun(100, func() { eventSink = NewEvent(s, owner.name) }); allocs != 1 {
		t.Errorf("NewEvent allocated %v times, want 1: the event and its name are one object", allocs)
	}
}

var eventSink *Event
