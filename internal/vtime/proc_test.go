package vtime

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A timeout takes the process off the queue it waited on. Before the
// descriptor queues, every expired WaitTimeout left a dead waiter on its
// Event until Set — and a job's kill event is never set on normal
// completion, so lrm.Proc.Work grew that slice by one per step.
func TestTimedOutWaitersAreUnlinked(t *testing.T) {
	const n = 10000
	s := New()
	ev := NewEvent(s, "never-set")
	wg := NewWaitGroup(s)
	wg.Add(1)
	ch := NewChan[int](s, "idle", 0)
	err := s.Run("main", func() {
		for i := 0; i < n; i++ {
			if ev.WaitTimeout(time.Millisecond) {
				t.Fatal("never-set event reported set")
			}
			if wg.WaitTimeout(time.Millisecond) {
				t.Fatal("held WaitGroup reported released")
			}
			if _, res := ch.RecvTimeout(time.Millisecond); res != RecvTimedOut {
				t.Fatalf("idle channel: %v", res)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.waiters.head != nil || wg.waiters.head != nil || ch.recvq.head != nil {
		t.Fatalf("queues not empty after %d timeouts each: event %v, waitgroup %v, chan %v",
			n, ev.waiters.head != nil, wg.waiters.head != nil, ch.recvq.head != nil)
	}
	if s.blocked.head != nil {
		t.Fatal("blocked list not empty after the run")
	}
	if got := len(s.freeTimers); got != 1 {
		t.Fatalf("%d timeout entries on the free list, want the 1 that every wait reused", got)
	}
}

// Blocking allocates nothing once the process has its descriptor, the
// timer queue its slot capacity and the free list its entries. op runs
// inside a simulated process; partner, if any, is the daemon it plays
// against, one round per value received on ping. Neither does starting a
// process once one has exited: the spawn takes over the descriptor and the
// goroutine it left.
func TestBlockingDoesNotAllocate(t *testing.T) {
	const step = 100 * time.Microsecond
	type fixture struct {
		s          *Sim
		ping, pong *Chan[int]
		never      *Event
		gate       *Event // re-armed by op: an Event is one-shot, and a new one is an allocation
		wg         *WaitGroup
		child      func()
	}
	cases := []struct {
		name    string
		partner func(f *fixture)
		op      func(f *fixture)
	}{
		{"Sleep", nil, func(f *fixture) { f.s.Sleep(step) }},
		{"Event.WaitTimeout/expired", nil, func(f *fixture) {
			if f.never.WaitTimeout(step) {
				panic("never-set event reported set")
			}
		}},
		{"Event.WaitTimeout/set", func(f *fixture) {
			f.s.Sleep(step)
			f.gate.Set()
		}, func(f *fixture) {
			f.s.mu.Lock()
			f.gate.set = false
			f.s.mu.Unlock()
			f.ping.Send(1)
			if !f.gate.WaitTimeout(3 * step) {
				panic("event not set in time")
			}
		}},
		{"Chan/ping-pong", func(f *fixture) { f.pong.Send(1) }, func(f *fixture) {
			f.ping.Send(1)
			f.pong.Recv()
		}},
		{"Chan.RecvTimeout/expired", nil, func(f *fixture) {
			if _, res := f.pong.RecvTimeout(step); res != RecvTimedOut {
				panic(res.String())
			}
		}},
		{"Chan.RecvTimeout/delivered", func(f *fixture) {
			f.s.Sleep(step)
			f.pong.Send(1)
		}, func(f *fixture) {
			f.ping.Send(1)
			if _, res := f.pong.RecvTimeout(3 * step); res != RecvOK {
				panic(res.String())
			}
		}},
		{"WaitGroup.Wait", func(f *fixture) {
			f.s.Sleep(step)
			f.wg.Done()
		}, func(f *fixture) {
			f.wg.Add(1)
			f.ping.Send(1)
			f.wg.Wait()
		}},
		{"Go", nil, func(f *fixture) {
			f.wg.Add(1)
			f.s.Go("child", f.child)
			f.wg.Wait()
		}},
	}
	for _, engine := range bothEngines {
		for _, tc := range cases {
			t.Run(engine+"/"+tc.name, func(t *testing.T) {
				s := newSimOn(engine, 1)
				f := &fixture{s: s, ping: NewChan[int](s, "ping", 0), pong: NewChan[int](s, "pong", 0),
					never: NewEvent(s, "never"), gate: NewEvent(s, "gate"), wg: NewWaitGroup(s)}
				f.child = f.wg.Done
				if tc.partner != nil {
					s.GoDaemon("partner", func() {
						for {
							f.ping.Recv()
							tc.partner(f)
						}
					})
				}
				var allocs float64
				if err := s.Run("main", func() {
					for i := 0; i < 2000; i++ { // a full turn of every wheel slot these steps touch
						tc.op(f)
					}
					allocs = testing.AllocsPerRun(200, func() { tc.op(f) })
				}); err != nil {
					t.Fatal(err)
				}
				if allocs != 0 {
					t.Fatalf("%v allocs per call, want 0", allocs)
				}
			})
		}
	}
}

// The hazard of recycling timeout entries: a wait that ends early leaves
// its entry filed in the timer queue, cancelled, until the clock reaches
// it. If that entry were handed to the process's next wait, the old filing
// would fire the new wait. Each worker goes straight from a wait whose
// entry was just popped (so the free list is not empty) into waits whose
// cancelled entries are still filed — first a shorter one, then a longer
// one — and every wake must land on its own deadline.
func TestDescriptorReuseNoSpuriousWake(t *testing.T) {
	const ms = time.Millisecond
	for _, engine := range bothEngines {
		t.Run(engine, func(t *testing.T) {
			s := newSimOn(engine, 1)
			done := NewWaitGroup(s)
			worker := func(id int) {
				defer done.Done()
				idle := NewChan[int](s, "idle", 0)
				never := NewEvent(s, "never")
				for round := 0; round < 200; round++ {
					stagger := time.Duration(id*37+round) * time.Microsecond
					check := func(what string, start, want time.Duration) {
						if got := s.Now() - start; got != want {
							t.Errorf("worker %d round %d: %s returned after %v, want %v", id, round, what, got, want)
						}
					}
					// Expires: its entry is popped and goes on the free list.
					start := s.Now()
					if _, res := idle.RecvTimeout(10*ms + stagger); res != RecvTimedOut {
						t.Errorf("idle channel: %v", res)
					}
					check("RecvTimeout", start, 10*ms+stagger)

					// Ends early at +2ms: the entry stays filed at +5ms, cancelled.
					early := NewEvent(s, "early")
					s.AfterFuncPassive(2*ms, early.Set)
					start = s.Now()
					if !early.WaitTimeout(5 * ms) {
						t.Errorf("worker %d round %d: early event timed out", id, round)
					}
					check("WaitTimeout(set)", start, 2*ms)

					// Outlives that filing (which pops at +3ms from here).
					start = s.Now()
					if never.WaitTimeout(20 * ms) {
						t.Errorf("worker %d round %d: never-set event reported set", id, round)
					}
					check("WaitTimeout(expired)", start, 20*ms)

					// And the other way round: a long wait ends early, and
					// short sleeps and a longer timeout run while its entry
					// is still filed ahead of the clock.
					early = NewEvent(s, "early-long")
					s.AfterFuncPassive(ms, early.Set)
					start = s.Now()
					if !early.WaitTimeout(50 * ms) {
						t.Errorf("worker %d round %d: early-long event timed out", id, round)
					}
					check("WaitTimeout(set, long)", start, ms)
					for i := 0; i < 3; i++ {
						start = s.Now()
						s.Sleep(7 * ms)
						check("Sleep", start, 7*ms)
					}
					start = s.Now()
					if _, res := idle.RecvTimeout(60 * ms); res != RecvTimedOut {
						t.Errorf("idle channel: %v", res)
					}
					check("RecvTimeout(long)", start, 60*ms)
				}
			}
			const workers = 8
			done.Add(workers)
			for id := 0; id < workers; id++ {
				s.Go(fmt.Sprintf("worker%d", id), func() { worker(id) })
			}
			if err := s.Run("main", done.Wait); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A passive callback, or a goroutine the kernel did not spawn, is not a
// process: a call that would block has nothing to block on and says so,
// where it used to corrupt the runnable count. A call that does not need to
// block is still fine, and the kernel stays usable after the panic.
func TestBlockingOutsideAProcessPanics(t *testing.T) {
	s := New()
	full := NewChan[int](s, "full", 1)
	full.TrySend(0)
	wg := NewWaitGroup(s)
	wg.Add(1)
	blocking := map[string]func(){
		"Sleep":          func() { s.Sleep(time.Second) },
		"Chan.Recv":      func() { NewChan[int](s, "empty", 0).Recv() },
		"Chan.Send":      func() { full.Send(1) },
		"Event.Wait":     func() { NewEvent(s, "unset").WaitTimeout(time.Second) },
		"WaitGroup.Wait": func() { wg.Wait() },
	}
	mustPanic := func(where, op string, call func()) {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, op+" would block outside a simulated process") {
				t.Errorf("%s: %s: recovered %q", where, op, msg)
			}
		}()
		call()
	}
	for op, call := range blocking {
		mustPanic("foreign goroutine", op, call)
	}
	err := s.Run("main", func() {
		s.AfterFuncPassive(time.Second, func() {
			for op, call := range blocking {
				mustPanic("passive callback", op, call)
			}
			if v, ok := full.Recv(); !ok || v != 0 { // a value is there: no need to block
				t.Errorf("Recv of a buffered value in a passive callback = %v, %v", v, ok)
			}
		})
		s.Sleep(2 * time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("run ended at %v, want 2s", s.Now())
	}
}

// Deadlock reports list processes in the order they blocked — not the
// order they were spawned — each line led by the process name.
func TestDeadlockReportOrderAndContent(t *testing.T) {
	s := New()
	a := NewChan[int](s, "chan-a", 0)
	b := NewChan[int](s, "chan-b", 0)
	gate := NewEvent(s, "gate")
	wg := NewWaitGroup(s)
	wg.Add(1)
	err, _ := s.Run("main", func() {
		s.Go("receiver", func() { s.Sleep(3 * time.Second); a.Recv() })
		s.Go("gated", func() { s.Sleep(time.Second); gate.Wait() })
		s.GoDaemon("joiner", func() { wg.Wait() })
		s.Go("sender", func() {
			b.RecvTimeout(2 * time.Second) // blocks first, wakes, and blocks again later
			b.Send(1)
		})
		s.AfterFunc(4*time.Second, func() { a.Recv() })
	}).(*DeadlockError)
	if err == nil {
		t.Fatal("no deadlock reported")
	}
	want := []string{
		"joiner: waitgroup wait (since t=0s)",
		"gated: event gate (since t=1s)",
		"sender: send on chan-b (since t=2s)",
		"receiver: recv on chan-a (since t=3s)",
		"afterfunc: recv on chan-a (since t=4s)",
	}
	if err.Now != 4*time.Second || !reflect.DeepEqual(err.Blocked, want) {
		t.Fatalf("deadlock at %v:\n got %q\nwant %q", err.Now, err.Blocked, want)
	}
}

// A descriptor keeps its goroutine: processes spawned one after another run
// on the goroutine (and the grown stack) the first one left, a process that
// leaves by runtime.Goexit retires its descriptor instead of handing on a
// dead goroutine, and when the simulation completes the parked goroutines
// go away — as does a daemon's that was still queued for the run token and
// only exits afterwards.
func TestProcessGoroutinesAreReusedAndReleased(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	peak, ran := 0, 0
	straggler := make(chan struct{})
	err := s.Run("main", func() {
		for i := 0; i < 1000; i++ {
			done := NewEvent(s, "done")
			s.Go("short", func() {
				s.Sleep(time.Millisecond)
				ran++
				done.Set()
			})
			done.Wait()
			s.Sleep(time.Millisecond) // let it exit
			peak = max(peak, runtime.NumGoroutine())
		}
		s.Go("goexit", func() {
			defer func() { ran++ }()
			runtime.Goexit()
		})
		s.Sleep(time.Millisecond)
		for i := 0; i < 3; i++ { // would hang on a descriptor whose goroutine is gone
			s.Go("after", func() { ran++ })
		}
		s.Sleep(time.Millisecond)
		s.GoDaemon("straggler", func() { close(straggler) })
	})
	if err != nil {
		t.Fatal(err)
	}
	<-straggler
	if ran != 1004 {
		t.Fatalf("%d processes ran, want 1004", ran)
	}
	if peak > before+4 {
		t.Fatalf("1000 sequential processes peaked at %d goroutines over a baseline of %d", peak, before)
	}
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines outlive the simulation, baseline %d", n, before)
	}
}

// label names an embedded Event or Chan.
type label string

func (l label) String() string { return string(l) }

// A descriptor on the free list holds nothing of the process that left it:
// what that process last waited on — an Event or Chan embedded in something
// larger, a job or a connection — is collectable while the descriptor sits
// idle, not only once the next process to take it waits on something else.
func TestIdleDescriptorLetsGoOfWhatItWaitedOn(t *testing.T) {
	type owner struct {
		ev    Event
		inbox Chan[int]
		pad   [1 << 10]byte
	}
	for name, wait := range map[string]func(o *owner){
		"Event": func(o *owner) { o.ev.Wait() },
		"Chan":  func(o *owner) { o.inbox.Recv() },
	} {
		t.Run(name, func(t *testing.T) {
			s := New()
			collected := make(chan struct{})
			err := s.Run("main", func() {
				func() {
					o := new(owner)
					o.ev.Init(s, label("embedded"))
					o.inbox.Init(s, &o.ev, 0)
					runtime.SetFinalizer(o, func(*owner) { close(collected) })
					s.Go("waiter", func() { wait(o) })
					s.Sleep(time.Millisecond) // it waits
					o.ev.Set()
					o.inbox.Close()
				}()
				s.Sleep(time.Millisecond) // it has exited: its descriptor is free, and kept
				s.mu.Lock()
				idle := len(s.freeProcs)
				s.mu.Unlock()
				if idle != 1 {
					t.Errorf("%d descriptors on the free list, want the waiter's", idle)
				}
				for i := 0; i < 50; i++ {
					runtime.GC()
					select {
					case <-collected:
						return
					case <-time.After(10 * time.Millisecond):
					}
				}
				t.Error("what an exited process waited on is still reachable from its idle descriptor")
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
