package vtime

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// stepTask is a Task whose body is a closure, for tests.
type stepTask struct {
	Task
	step func()
}

func (t *stepTask) RunTask() { t.step() }

func newStepTask(s *Sim, step func()) *stepTask {
	t := &stepTask{step: step}
	t.Init(s, t)
	return t
}

// A task's step may re-arm the task: it then fires once per arming, at the
// instants asked for, on the task's one timer entry, and arming it a second
// time while it is armed is a bug the kernel names.
func TestTaskRearmsFromOwnStep(t *testing.T) {
	for _, engine := range bothEngines {
		t.Run(engine, func(t *testing.T) {
			s := newSimOn(engine, 1)
			var at []time.Duration
			var tick *stepTask
			tick = newStepTask(s, func() {
				at = append(at, s.Now())
				if len(at) < 5 {
					tick.At(s.Now() + time.Duration(len(at))*time.Millisecond)
				}
			})
			err := s.Run("main", func() {
				tick.At(time.Millisecond)
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, "already armed") {
							t.Errorf("second At while armed: recovered %q", msg)
						}
					}()
					tick.At(time.Second)
				}()
				s.Sleep(time.Second)
			})
			if err != nil {
				t.Fatal(err)
			}
			const ms = time.Millisecond
			if want := []time.Duration{ms, 2 * ms, 4 * ms, 7 * ms, 11 * ms}; !reflect.DeepEqual(at, want) {
				t.Errorf("steps ran at %v, want %v", at, want)
			}
			if s.TasksRun() != 5 || s.TimersFired() != 6 || s.Spawned() != 1 {
				t.Errorf("tasks run %d, timers fired %d, spawned %d; want 5, 6 (with main's sleep), 1",
					s.TasksRun(), s.TimersFired(), s.Spawned())
			}
		})
	}
}

// Ready takes the run-queue slot a process woken at that point would take:
// the step runs after what was already runnable and before what becomes
// runnable later — and never inside the call.
func TestTaskReadyTakesARunQueueSlot(t *testing.T) {
	s := New()
	var order []string
	before, after := NewEvent(s, "before"), NewEvent(s, "after")
	task := newStepTask(s, func() { order = append(order, "task") })
	err := s.Run("main", func() {
		s.Go("p-before", func() { before.Wait(); order = append(order, "p-before") })
		s.Go("p-after", func() { after.Wait(); order = append(order, "p-after") })
		s.Sleep(time.Millisecond) // both are waiting
		before.Set()
		task.Ready()
		after.Set()
		order = append(order, "main")
		s.Sleep(time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"main", "p-before", "task", "p-after"}; !reflect.DeepEqual(order, want) {
		t.Errorf("ran in order %v, want %v", order, want)
	}
}

// The only process there is blocks, so it is the dispatcher: the task that
// wakes it runs on its stack, the grant waits for it in its own channel,
// and no goroutine switch happens at all.
func TestTaskWakesItsOwnDispatcher(t *testing.T) {
	s := New()
	ch := NewChan[string](s, "ch", 0)
	ev := NewEvent(s, "ev")
	wg := NewWaitGroup(s)
	wg.Add(1)
	var send, set, done *stepTask
	send = newStepTask(s, func() { ch.TrySend("hello"); set.At(s.Now() + time.Millisecond) })
	set = newStepTask(s, func() { ev.Set(); done.At(s.Now() + time.Millisecond) })
	done = newStepTask(s, func() { wg.Done() })
	err := s.Run("main", func() {
		send.At(time.Millisecond)
		handoffs := s.Handoffs()
		if v, ok := ch.Recv(); !ok || v != "hello" {
			t.Errorf("Recv = %q, %v", v, ok)
		}
		ev.Wait()
		wg.Wait()
		if s.Now() != 3*time.Millisecond {
			t.Errorf("woke at %v, want 3ms", s.Now())
		}
		if got := s.Handoffs() - handoffs; got != 0 {
			t.Errorf("%d hand-offs while one process dispatched its own wake-ups, want 0", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.TasksRun() != 3 {
		t.Errorf("tasks run = %d, want 3", s.TasksRun())
	}
}

// A step is not a process: a kernel call that would block has nothing to
// block on and says so; calls that need not block are fine, and the kernel
// stays usable afterwards.
func TestBlockingCallInATaskPanics(t *testing.T) {
	s := New()
	full := NewChan[int](s, "full", 1)
	full.TrySend(0)
	ran := false
	task := newStepTask(s, func() {
		for op, call := range map[string]func(){
			"Sleep":      func() { s.Sleep(time.Second) },
			"Chan.Recv":  func() { NewChan[int](s, "empty", 0).Recv() },
			"Chan.Send":  func() { full.Send(1) },
			"Event.Wait": func() { NewEvent(s, "unset").Wait() },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, op+" would block outside a simulated process") {
						t.Errorf("%s in a task step: recovered %q", op, msg)
					}
				}()
				call()
			}()
		}
		if v, ok := full.Recv(); !ok || v != 0 { // a value is there: no need to block
			t.Errorf("Recv of a buffered value in a task step = %v, %v", v, ok)
		}
		s.Go("spawned-by-task", func() { s.Sleep(time.Millisecond); ran = true })
	})
	err := s.Run("main", func() {
		task.Ready()
		s.Sleep(time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("the process the step spawned never ran")
	}
}

// An armed task is a pending timer like any other, so the run goes on; a
// task that is neither armed nor queued is nothing at all, and a run whose
// processes are all blocked is then a deadlock that lists the processes
// and only them.
func TestDeadlockWithIdleTasks(t *testing.T) {
	s := New()
	never := NewChan[int](s, "never", 0)
	fired := 0
	var armed *stepTask
	armed = newStepTask(s, func() {
		if fired++; fired < 3 {
			armed.At(s.Now() + time.Hour)
		}
	})
	idle := newStepTask(s, func() { t.Error("a task nobody armed ran") })
	_ = idle
	s.GoDaemon("daemon", func() { never.Recv() })
	armed.At(time.Hour) // before the worker exists: alone, it could sleep, block and be the deadlock
	s.Go("worker", func() { s.Sleep(time.Minute); never.Recv() })
	err, _ := s.Wait().(*DeadlockError)
	if err == nil {
		t.Fatal("no deadlock reported")
	}
	want := []string{"daemon: recv on never (since t=0s)", "worker: recv on never (since t=1m0s)"}
	if fired != 3 || err.Now != 3*time.Hour || !reflect.DeepEqual(err.Blocked, want) {
		t.Errorf("armed task fired %d times; deadlock at %v: %q\nwant 3 times, 3h, %q", fired, err.Now, err.Blocked, want)
	}
}

// A process that exits is the dispatcher on its way out, with its
// descriptor already free: a process spawned by a task it runs takes that
// descriptor, goroutine and all, and starts without a hand-off.
func TestExitingDispatcherIsReusedBySpawn(t *testing.T) {
	s := New()
	var order []string
	task := newStepTask(s, func() {
		order = append(order, "task")
		s.Go("second", func() { order = append(order, "second") })
	})
	err := s.Run("main", func() {
		s.Go("first", func() {
			order = append(order, "first")
			task.Ready()
		})
		handoffs := s.Handoffs()
		s.Sleep(time.Millisecond)
		// main -> first, then first's goroutine runs the task and second,
		// then fires main's timer: second -> main.
		if got := s.Handoffs() - handoffs; got != 2 {
			t.Errorf("%d hand-offs, want 2: the spawn did not reuse the exiting dispatcher's descriptor", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"first", "task", "second"}; !reflect.DeepEqual(order, want) {
		t.Errorf("ran %v, want %v", order, want)
	}
	if s.Spawned() != 3 {
		t.Errorf("spawned = %d, want 3", s.Spawned())
	}
}

// Before the first process exists nobody holds the run token and nobody
// dispatches: a task readied then waits, and runs ahead of that process.
func TestTaskReadiedBeforeTheFirstProcess(t *testing.T) {
	s := New()
	ran := 0
	task := newStepTask(s, func() { ran++ })
	task.Ready()
	if ran != 0 {
		t.Fatal("Ready ran the step inside the call")
	}
	err := s.Run("main", func() {
		if ran != 1 {
			t.Errorf("step ran %d times before the first process, want 1", ran)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A task registered on a channel is the run-to-completion analogue of a
// blocked receiver: readied once per registration — by the send that gives
// the channel a value, by its close, or at once if there is already
// something to find — and never for a send it did not register for. The
// channel has one slot for it.
func TestChanReadiesATaskOnArrival(t *testing.T) {
	for _, engine := range bothEngines {
		t.Run(engine, func(t *testing.T) {
			s := newSimOn(engine, 1)
			ch := NewChan[int](s, "inbox", 4)
			var got []string
			var drain *stepTask
			drain = newStepTask(s, func() {
				for {
					v, res := ch.RecvTimeout(0)
					if res != RecvOK {
						got = append(got, res.String())
						if res == RecvTimedOut {
							ch.ReadyOnArrival(&drain.Task)
						}
						return
					}
					got = append(got, string(rune('0'+v)))
				}
			})
			expectPanic := func(what, want string, f func()) {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, want) {
						t.Errorf("%s: recovered %q, want it to mention %q", what, msg, want)
					}
				}()
				f()
			}
			err := s.Run("main", func() {
				ch.ReadyOnArrival(&drain.Task) // empty: nothing happens yet
				s.Sleep(time.Millisecond)
				if len(got) != 0 || s.TasksRun() != 0 {
					t.Errorf("a task registered on an empty channel ran: %v", got)
				}
				expectPanic("a second task on one channel", "already waiting", func() {
					ch.ReadyOnArrival(&newStepTask(s, func() {}).Task)
				})
				expectPanic("one task registered twice", "already armed", func() {
					NewChan[int](s, "other", 1).ReadyOnArrival(&drain.Task)
				})
				expectPanic("a registered task armed", "already armed", func() { drain.At(time.Hour) })

				ch.TrySend(1) // readies it, once
				ch.TrySend(2) // nobody is registered for this one
				if len(got) != 0 {
					t.Errorf("the step ran inside TrySend: %v", got)
				}
				s.Sleep(time.Millisecond) // one step: drains both, registers again
				if want := []string{"1", "2", "timeout"}; !reflect.DeepEqual(got, want) || s.TasksRun() != 1 {
					t.Errorf("after two sends: %v in %d step(s), want %v in 1", got, s.TasksRun(), want)
				}

				got = nil
				ch.Close() // readies it, once; it does not register again
				s.Sleep(time.Millisecond)
				if want := []string{"closed"}; !reflect.DeepEqual(got, want) || s.TasksRun() != 2 {
					t.Errorf("after Close: %v in %d step(s), want %v in 2", got, s.TasksRun(), want)
				}

				// Something is already there: readied at once, run when main blocks.
				waiting := NewChan[int](s, "waiting", 1)
				waiting.TrySend(7)
				ran := false
				late := newStepTask(s, func() { ran = true })
				waiting.ReadyOnArrival(&late.Task)
				if ran {
					t.Error("the step ran inside ReadyOnArrival")
				}
				closed := NewChan[int](s, "closed", 0)
				closed.Close()
				onClosed := newStepTask(s, func() {})
				closed.ReadyOnArrival(&onClosed.Task)
				s.Sleep(time.Millisecond)
				if !ran || s.TasksRun() != 4 {
					t.Errorf("tasks registered on a full and on a closed channel: %d steps in all, want 4", s.TasksRun())
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if s.Spawned() != 1 || s.Handoffs() != 1 {
				t.Errorf("spawned %d, hand-offs %d; want 1 and 1: main and its first grant", s.Spawned(), s.Handoffs())
			}
		})
	}
}

// The arrival readies the task in the run-queue slot a receiver woken by
// the same send would take: behind a process woken earlier in the instant,
// ahead of one woken later. A blocked sender's value counts as an arrival
// on a rendezvous channel, and a process blocked receiving takes a value
// ahead of the task.
func TestArrivalTakesTheReceiversRunQueueSlot(t *testing.T) {
	for _, engine := range bothEngines {
		t.Run(engine, func(t *testing.T) {
			s := newSimOn(engine, 1)
			var order []string
			before, after := NewEvent(s, "before"), NewEvent(s, "after")
			ch := NewChan[string](s, "ch", 1)
			task := newStepTask(s, func() {
				v, _ := ch.TryRecv()
				order = append(order, "task:"+v)
			})
			err := s.Run("main", func() {
				s.Go("p-before", func() { before.Wait(); order = append(order, "p-before") })
				s.Go("p-after", func() { after.Wait(); order = append(order, "p-after") })
				ch.ReadyOnArrival(&task.Task)
				s.Sleep(time.Millisecond)
				before.Set()
				ch.TrySend("x")
				after.Set()
				order = append(order, "main")
				s.Sleep(time.Millisecond)
				if want := []string{"main", "p-before", "task:x", "p-after"}; !reflect.DeepEqual(order, want) {
					t.Errorf("ran in order %v, want %v", order, want)
				}

				// Rendezvous: the sender blocks, its value is there for the step,
				// and taking it wakes the sender — which is the dispatcher.
				order = nil
				rv := NewChan[string](s, "rendezvous", 0)
				taker := newStepTask(s, func() {
					v, _ := rv.TryRecv()
					order = append(order, "task:"+v)
				})
				rv.ReadyOnArrival(&taker.Task)
				handoffs := s.Handoffs()
				rv.Send("y")
				if want := []string{"task:y"}; !reflect.DeepEqual(order, want) || s.Handoffs() != handoffs {
					t.Errorf("rendezvous send: %v with %d hand-offs, want %v with 0", order, s.Handoffs()-handoffs, want)
				}

				// A process in Recv is ahead of the task: the value goes to it.
				order = nil
				both := NewChan[string](s, "both", 1)
				idle := newStepTask(s, func() { order = append(order, "task") })
				both.ReadyOnArrival(&idle.Task)
				s.Go("receiver", func() {
					v, _ := both.Recv()
					order = append(order, "receiver:"+v)
				})
				s.Sleep(time.Millisecond)
				both.TrySend("z")
				s.Sleep(time.Millisecond)
				if want := []string{"receiver:z"}; !reflect.DeepEqual(order, want) {
					t.Errorf("send with a receiver and a task waiting: %v, want %v", order, want)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Wait returns when the run is over for good: a daemon that was queued for
// the run token when the last process exited still gets its turn, and what
// it does in it has happened before Wait returns — not while the caller is
// already reading the results. The first daemon that waits instead of
// exiting keeps the token, and what was queued behind it never runs.
func TestWaitReturnsAfterQueuedDaemonsHadTheirTurn(t *testing.T) {
	s := New()
	var ran []string
	err := s.Run("main", func() {
		s.GoDaemon("exits", func() { ran = append(ran, "exits") })
		s.GoDaemon("waits", func() {
			ran = append(ran, "waits")
			s.Sleep(time.Second)
			ran = append(ran, "woke")
		})
		s.GoDaemon("behind", func() { ran = append(ran, "behind") })
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"exits", "waits"}; !reflect.DeepEqual(ran, want) { // unsynchronised on purpose: -race checks the claim
		t.Errorf("after Wait: %v, want %v", ran, want)
	}
}
