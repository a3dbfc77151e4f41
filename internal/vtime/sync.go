package vtime

import (
	"fmt"
	"time"
)

// WaitGroup is a simulated analogue of sync.WaitGroup: Wait blocks in
// virtual time until the counter reaches zero.
type WaitGroup struct {
	s       *Sim
	count   int
	waiters procQueue
}

// NewWaitGroup creates a WaitGroup bound to s.
func NewWaitGroup(s *Sim) *WaitGroup { return &WaitGroup{s: s} }

// Add adds delta (which may be negative) to the counter. If the counter
// reaches zero, all blocked Wait calls are released. A negative counter
// panics.
func (wg *WaitGroup) Add(delta int) {
	s := wg.s
	s.mu.Lock()
	wg.count += delta
	if wg.count < 0 {
		s.mu.Unlock()
		panic("vtime: negative WaitGroup counter")
	}
	if wg.count == 0 {
		s.wakeAllLocked(&wg.waiters, wsDelivered)
	}
	s.mu.Unlock()
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count returns the current counter value.
func (wg *WaitGroup) Count() int {
	wg.s.mu.Lock()
	defer wg.s.mu.Unlock()
	return wg.count
}

// Wait blocks in virtual time until the counter is zero.
func (wg *WaitGroup) Wait() { wg.wait(-1) }

// WaitTimeout blocks until the counter is zero or d of virtual time has
// elapsed; it reports whether the counter reached zero.
func (wg *WaitGroup) WaitTimeout(d time.Duration) bool {
	if d < 0 {
		panic("vtime: negative WaitGroup timeout")
	}
	return wg.wait(d)
}

func (wg *WaitGroup) wait(d time.Duration) bool {
	s := wg.s
	s.mu.Lock()
	if s.completed {
		s.abandonLocked()
	}
	if done := wg.count == 0; done || d == 0 {
		s.mu.Unlock()
		return done
	}
	return s.waitLocked(&wg.waiters, "WaitGroup.Wait", waitWaitGroup, nil, d)
}

// waitLocked blocks the calling process on q until a release wakes it
// (true) or, if d >= 0, d elapses (false). Called with s.mu held; returns
// with it released.
func (s *Sim) waitLocked(q *procQueue, op string, kind waitKind, on fmt.Stringer, d time.Duration) bool {
	p := s.curLocked(op)
	s.blockLocked(p, q, kind, on, d)
	s.mu.Unlock()
	<-p.grant
	return p.state == wsDelivered
}

// Event is a one-shot broadcast flag: Wait blocks in virtual time until Set
// is called. Once set, an Event stays set. It is useful for cancellation
// and shutdown signals.
type Event struct {
	s *Sim
	// name renders the event's name when a deadlock report asks for it. It
	// is the one word pair an Event spends on being named: a plain name and
	// an owner side by side would make every Event 64 bytes, and lrm.Job,
	// which embeds three, outgrow its size class.
	name    fmt.Stringer
	set     bool
	waiters procQueue
}

// namedEvent is what NewEvent allocates: an Event and, in the same object,
// the name it points at.
type namedEvent struct {
	Event
	label eventLabel
}

type eventLabel string

func (l *eventLabel) String() string { return string(*l) }

// NewEvent creates an unset Event. The name appears in deadlock reports.
func NewEvent(s *Sim, name string) *Event {
	e := &namedEvent{label: eventLabel(name)}
	e.Init(s, &e.label)
	return &e.Event
}

// Init makes the zero Event embedded in a larger struct usable, unset. As
// with a Chan made by Init, an event made by the thousand is named only if
// someone asks: owner's String is called when a deadlock report needs the
// name, and not before.
func (e *Event) Init(s *Sim, owner fmt.Stringer) { e.s, e.name = s, owner }

// String returns the event's name.
func (e *Event) String() string {
	if e.name == nil {
		return ""
	}
	return e.name.String()
}

// Set sets the event, releasing all current and future Wait calls. Setting
// an already-set event is a no-op.
func (e *Event) Set() {
	s := e.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.set {
		return
	}
	e.set = true
	s.wakeAllLocked(&e.waiters, wsDelivered)
}

// IsSet reports whether the event has been set.
func (e *Event) IsSet() bool {
	e.s.mu.Lock()
	defer e.s.mu.Unlock()
	return e.set
}

// Wait blocks in virtual time until the event is set.
func (e *Event) Wait() { e.wait(-1) }

// WaitTimeout blocks until the event is set or d of virtual time has
// elapsed; it reports whether the event was set.
func (e *Event) WaitTimeout(d time.Duration) bool {
	if d < 0 {
		panic("vtime: negative Event timeout")
	}
	return e.wait(d)
}

func (e *Event) wait(d time.Duration) bool {
	s := e.s
	s.mu.Lock()
	if s.completed {
		s.abandonLocked()
	}
	if set := e.set; set || d == 0 {
		s.mu.Unlock()
		return set
	}
	return s.waitLocked(&e.waiters, "Event.Wait", waitEvent, e, d)
}
