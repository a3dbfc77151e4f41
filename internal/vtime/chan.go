package vtime

import (
	"fmt"
	"time"
)

// RecvResult classifies the outcome of a channel receive with timeout.
type RecvResult int

const (
	// RecvOK means a value was received.
	RecvOK RecvResult = iota
	// RecvClosed means the channel was closed and drained.
	RecvClosed
	// RecvTimedOut means the timeout expired before a value arrived.
	RecvTimedOut
)

func (r RecvResult) String() string {
	switch r {
	case RecvOK:
		return "ok"
	case RecvClosed:
		return "closed"
	case RecvTimedOut:
		return "timeout"
	}
	return "invalid"
}

// ring is a FIFO of values on a circular buffer whose size is a power of
// two and grows by doubling, so steady-state push and pop neither allocate
// nor move anything.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*r.n))
		for i := range r.buf {
			grown[i] = *r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	r.n++
	*r.at(r.n - 1) = v
}

func (r *ring[T]) pop() T {
	slot := r.at(0)
	v := *slot
	*slot = *new(T)
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// truncate drops the newest values until at most n remain.
func (r *ring[T]) truncate(n int) {
	for ; r.n > n; r.n-- {
		*r.at(r.n - 1) = *new(T)
	}
}

// Chan is a simulated channel. Operations have Go channel semantics
// (rendezvous when unbuffered, FIFO buffering otherwise, close wakes
// receivers), but blocking is accounted by the kernel so that virtual time
// can advance while processes wait.
type Chan[T any] struct {
	s     *Sim
	name  string
	owner fmt.Stringer // names the channel on demand when name is empty
	cap   int
	// buf holds the buffered values and, beyond cap, the value of each
	// blocked sender in sendq order: the receive that frees a slot wakes the
	// first sender, whose value is by then already inside the buffer.
	buf ring[T]
	// handed holds the values given to woken receivers that have not
	// resumed yet. Receivers resume in wake order (the run queue is FIFO),
	// so each takes the oldest; no other receive can reach these values.
	handed ring[T]
	recvq  procQueue
	sendq  procQueue
	// arrival is the task waiting for the channel's next value or its close
	// (ReadyOnArrival), nil if none.
	arrival *Task
	closed  bool
}

// NewChan creates a simulated channel with the given buffer capacity
// (0 for a rendezvous channel). The name appears in deadlock reports.
func NewChan[T any](s *Sim, name string, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("vtime: negative channel capacity")
	}
	return &Chan[T]{s: s, name: name, cap: capacity}
}

// Init makes the zero Chan embedded in a larger struct usable, with the
// given buffer capacity. Channels made by the thousand are named only if
// someone asks: owner's String is called when a deadlock report or a panic
// needs the name, and not before.
func (c *Chan[T]) Init(s *Sim, owner fmt.Stringer, capacity int) {
	c.s, c.owner, c.cap = s, owner, capacity
}

// String returns the channel's name.
func (c *Chan[T]) String() string {
	if c.owner != nil {
		return c.owner.String()
	}
	return c.name
}

// Send delivers v, blocking in virtual time until a receiver or buffer
// space is available. Sending on a closed channel panics, as with Go
// channels.
func (c *Chan[T]) Send(v T) {
	s := c.s
	s.mu.Lock()
	if s.completed {
		s.abandonLocked()
	}
	if c.closed {
		s.mu.Unlock()
		panic("vtime: send on closed channel " + c.String())
	}
	if c.offerLocked(v) {
		s.mu.Unlock()
		return
	}
	p := s.curLocked("Chan.Send")
	c.buf.push(v)
	c.arrivedLocked()
	s.blockLocked(p, &c.sendq, waitSend, c, -1)
	s.mu.Unlock()
	<-p.grant
	if p.state == wsClosed {
		panic("vtime: send on closed channel " + c.String())
	}
}

// offerLocked hands v to the longest-waiting receiver or, failing that,
// buffers it; it reports false if the channel can take v neither way.
func (c *Chan[T]) offerLocked(v T) bool {
	if w := c.recvq.head; w != nil {
		c.handed.push(v)
		c.s.wakeLocked(w, wsDelivered)
		return true
	}
	if c.buf.n < c.cap {
		c.buf.push(v)
		c.arrivedLocked()
		return true
	}
	return false
}

// ReadyOnArrival registers t as the channel's task waiter — the
// run-to-completion analogue of a blocked receiver. t is readied once, when
// the channel next holds a value or is closed, in the run-queue slot a
// receiver woken at that moment would take; at once if it already holds one
// or is closed. Its step then receives without blocking (TryRecv, or
// RecvTimeout(0) to tell empty from closed) until the channel is empty, and
// registers again. A value sent while a process is also blocked receiving
// goes to the process. The channel has one such slot, and from registration
// until its step starts t counts as armed: a second registration panics.
func (c *Chan[T]) ReadyOnArrival(t *Task) {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.arrival != nil {
		panic("vtime: a task is already waiting for an arrival on channel " + c.String())
	}
	t.claimLocked()
	c.arrival = t
	if c.buf.n > 0 || c.closed {
		c.arrivedLocked()
	}
}

// arrivedLocked readies the task waiter, if any: the channel has just gained
// a value or been closed.
func (c *Chan[T]) arrivedLocked() {
	if t := c.arrival; t != nil {
		c.arrival = nil
		c.s.readyLocked(runnable{e: &t.entry})
	}
}

// TrySend delivers v without blocking; it reports whether the value was
// accepted. TrySend on a closed channel returns false.
func (c *Chan[T]) TrySend(v T) bool {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return !c.closed && c.offerLocked(v)
}

// Recv receives a value, blocking in virtual time until one is available.
// ok is false if the channel is closed and drained.
func (c *Chan[T]) Recv() (v T, ok bool) {
	v, res := c.recv(-1)
	return v, res == RecvOK
}

// RecvTimeout receives a value, giving up after d of virtual time. A zero d
// never blocks — a task step may call it — and, unlike TryRecv, tells an
// empty channel (RecvTimedOut) from a closed one.
func (c *Chan[T]) RecvTimeout(d time.Duration) (v T, res RecvResult) {
	if d < 0 {
		panic("vtime: negative receive timeout")
	}
	return c.recv(d)
}

// recv implements Recv (d < 0 means no timeout) and RecvTimeout.
func (c *Chan[T]) recv(d time.Duration) (v T, res RecvResult) {
	s := c.s
	s.mu.Lock()
	if s.completed {
		s.abandonLocked()
	}
	if c.buf.n > 0 {
		// Buffered, or (rendezvous) straight from a blocked sender. Either
		// way the first blocked sender's value is now within cap.
		v = c.buf.pop()
		if w := c.sendq.head; w != nil {
			s.wakeLocked(w, wsDelivered)
		}
		s.mu.Unlock()
		return v, RecvOK
	}
	if c.closed {
		s.mu.Unlock()
		return v, RecvClosed
	}
	if d == 0 {
		s.mu.Unlock()
		return v, RecvTimedOut
	}
	p := s.curLocked("Chan.Recv")
	s.blockLocked(p, &c.recvq, waitRecv, c, d)
	s.mu.Unlock()
	<-p.grant
	switch p.state {
	case wsDelivered:
		s.mu.Lock()
		v = c.handed.pop()
		s.mu.Unlock()
		return v, RecvOK
	case wsClosed:
		return v, RecvClosed
	default:
		return v, RecvTimedOut
	}
}

// TryRecv receives a value without blocking; ok is false if no value is
// immediately available (including when the channel is closed and drained).
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	v, res := c.recv(0)
	return v, res == RecvOK
}

// Close closes the channel. Blocked receivers wake with a closed result;
// blocked senders panic, as with Go channels. Closing twice panics.
func (c *Chan[T]) Close() {
	s := c.s
	s.mu.Lock()
	if c.closed {
		s.mu.Unlock()
		panic("vtime: close of closed channel " + c.String())
	}
	c.closed = true
	s.wakeAllLocked(&c.recvq, wsClosed)
	s.wakeAllLocked(&c.sendq, wsClosed)
	c.arrivedLocked()
	c.buf.truncate(c.cap) // the blocked senders' values go with them
	s.mu.Unlock()
}

// IsClosed reports whether the channel has been closed.
func (c *Chan[T]) IsClosed() bool {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.closed
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return min(c.buf.n, c.cap)
}

// Cap returns the buffer capacity.
func (c *Chan[T]) Cap() int { return c.cap }
