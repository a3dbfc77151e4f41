package vtime

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestChanRendezvousTransfersValue(t *testing.T) {
	s := New()
	ch := NewChan[string](s, "rv", 0)
	var got string
	var at time.Duration
	err := s.Run("main", func() {
		s.Go("sender", func() {
			s.Sleep(2 * time.Second)
			ch.Send("hello")
		})
		s.Go("receiver", func() {
			got, _ = ch.Recv()
			at = s.Now()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != "hello" {
		t.Fatalf("received %q, want hello", got)
	}
	if at != 2*time.Second {
		t.Fatalf("received at %v, want 2s (receiver must block until sender arrives)", at)
	}
}

func TestChanSenderBlocksUntilReceiver(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "rv", 0)
	var sendDone time.Duration
	err := s.Run("main", func() {
		s.Go("sender", func() {
			ch.Send(1)
			sendDone = s.Now()
		})
		s.Go("receiver", func() {
			s.Sleep(3 * time.Second)
			ch.Recv()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sendDone != 3*time.Second {
		t.Fatalf("send completed at %v, want 3s", sendDone)
	}
}

func TestChanBufferedSendDoesNotBlock(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "buf", 2)
	err := s.Run("main", func() {
		ch.Send(1)
		ch.Send(2)
		if got := s.Now(); got != 0 {
			t.Errorf("buffered sends advanced time to %v", got)
		}
		if ch.Len() != 2 {
			t.Errorf("Len = %d, want 2", ch.Len())
		}
		if v, ok := ch.Recv(); !ok || v != 1 {
			t.Errorf("Recv = %d,%t want 1,true", v, ok)
		}
		if v, ok := ch.Recv(); !ok || v != 2 {
			t.Errorf("Recv = %d,%t want 2,true", v, ok)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestChanBufferFullBlocksSender(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "buf", 1)
	var thirdAt time.Duration
	err := s.Run("main", func() {
		s.Go("sender", func() {
			ch.Send(1)
			ch.Send(2) // fills after receiver takes 1? no: cap 1, second blocks
			thirdAt = s.Now()
		})
		s.Go("receiver", func() {
			s.Sleep(5 * time.Second)
			ch.Recv()
			ch.Recv()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if thirdAt != 5*time.Second {
		t.Fatalf("blocked send completed at %v, want 5s", thirdAt)
	}
}

func TestChanFIFOOrder(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "fifo", 4)
	var got []int
	err := s.Run("main", func() {
		s.Go("sender", func() {
			for i := 0; i < 100; i++ {
				ch.Send(i)
			}
			ch.Close()
		})
		s.Go("receiver", func() {
			for {
				v, ok := ch.Recv()
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 100 {
		t.Fatalf("received %d values, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, FIFO order violated", i, v)
		}
	}
}

func TestChanRecvTimeoutExpires(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "slow", 0)
	err := s.Run("main", func() {
		_, res := ch.RecvTimeout(4 * time.Second)
		if res != RecvTimedOut {
			t.Errorf("res = %v, want timeout", res)
		}
		if s.Now() != 4*time.Second {
			t.Errorf("timed out at %v, want 4s", s.Now())
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// Both processes are spawned by one driver, as in every test here that
// needs more than one: spawned one by one from the test's own goroutine, the
// first runs at once, alone — this sender would sleep, reach its rendezvous
// and, once in some thousand runs, be declared deadlocked before the
// receiver existed.
func TestChanRecvTimeoutValueArrivesFirst(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "race", 0)
	err := s.Run("main", func() {
		s.Go("sender", func() {
			s.Sleep(time.Second)
			ch.Send(7)
		})
		s.Go("receiver", func() {
			v, res := ch.RecvTimeout(10 * time.Second)
			if res != RecvOK || v != 7 {
				t.Errorf("got %d,%v want 7,ok", v, res)
			}
			if s.Now() != time.Second {
				t.Errorf("received at %v, want 1s", s.Now())
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestChanRecvTimeoutZeroIsTryRecv(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "try", 1)
	err := s.Run("main", func() {
		if _, res := ch.RecvTimeout(0); res != RecvTimedOut {
			t.Errorf("empty RecvTimeout(0) = %v, want timeout", res)
		}
		ch.Send(1)
		if v, res := ch.RecvTimeout(0); res != RecvOK || v != 1 {
			t.Errorf("nonempty RecvTimeout(0) = %d,%v want 1,ok", v, res)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "closing", 0)
	results := NewChan[RecvResult](s, "results", 3)
	err := s.Run("main", func() {
		for i := 0; i < 3; i++ {
			s.Go("receiver", func() {
				_, res := ch.RecvTimeout(time.Hour)
				results.Send(res)
			})
		}
		s.Go("closer", func() {
			s.Sleep(time.Second)
			ch.Close()
		})
		for i := 0; i < 3; i++ {
			res, _ := results.Recv()
			if res != RecvClosed {
				t.Errorf("receiver %d got %v, want closed", i, res)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestChanRecvDrainsBufferAfterClose(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "drain", 3)
	err := s.Run("main", func() {
		ch.Send(1)
		ch.Send(2)
		ch.Close()
		if v, ok := ch.Recv(); !ok || v != 1 {
			t.Errorf("first drain = %d,%t", v, ok)
		}
		if v, ok := ch.Recv(); !ok || v != 2 {
			t.Errorf("second drain = %d,%t", v, ok)
		}
		if _, ok := ch.Recv(); ok {
			t.Error("Recv on drained closed channel reported ok")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestChanSendOnClosedPanics(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "closed", 1)
	err := s.Run("main", func() {
		ch.Close()
		defer func() {
			if recover() == nil {
				t.Error("send on closed channel did not panic")
			}
		}()
		ch.Send(1)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestChanDoubleClosePanics(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "dbl", 0)
	err := s.Run("main", func() {
		ch.Close()
		defer func() {
			if recover() == nil {
				t.Error("double close did not panic")
			}
		}()
		ch.Close()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestChanTrySendTryRecv(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "try", 1)
	err := s.Run("main", func() {
		if _, ok := ch.TryRecv(); ok {
			t.Error("TryRecv on empty channel succeeded")
		}
		if !ch.TrySend(5) {
			t.Error("TrySend on empty buffered channel failed")
		}
		if ch.TrySend(6) {
			t.Error("TrySend on full channel succeeded")
		}
		if v, ok := ch.TryRecv(); !ok || v != 5 {
			t.Errorf("TryRecv = %d,%t want 5,true", v, ok)
		}
		ch.Close()
		if ch.TrySend(7) {
			t.Error("TrySend on closed channel succeeded")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestChanTrySendToWaitingReceiver(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "handoff", 0)
	var got int
	err := s.Run("sender", func() {
		s.Go("receiver", func() { got, _ = ch.Recv() })
		s.Sleep(time.Millisecond) // let the receiver block first
		if !ch.TrySend(9) {
			t.Error("TrySend with waiting receiver failed")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 9 {
		t.Fatalf("receiver got %d, want 9", got)
	}
}

func TestChanManyProducersOneConsumer(t *testing.T) {
	s := New()
	ch := NewChan[int](s, "mpsc", 8)
	const producers, each = 10, 50
	total := 0
	err := s.Run("consumer", func() {
		for p := 0; p < producers; p++ {
			s.Go("producer", func() {
				for i := 0; i < each; i++ {
					s.Sleep(time.Millisecond)
					ch.Send(1)
				}
			})
		}
		for i := 0; i < producers*each; i++ {
			v, ok := ch.Recv()
			if !ok {
				t.Error("channel closed unexpectedly")
				return
			}
			total += v
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if total != producers*each {
		t.Fatalf("consumed %d, want %d", total, producers*each)
	}
}

// Property: for any sequence of buffered sends followed by receives, values
// come out in FIFO order and none are lost.
func TestChanFIFOProperty(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) > 256 {
			vals = vals[:256]
		}
		s := New()
		ch := NewChan[int16](s, "prop", len(vals)+1)
		ok := true
		err := s.Run("main", func() {
			for _, v := range vals {
				ch.Send(v)
			}
			for _, want := range vals {
				got, recvOK := ch.Recv()
				if !recvOK || got != want {
					ok = false
					return
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: RecvTimeout never reports a timeout earlier than requested and,
// when nothing is sent, times out exactly at the deadline.
func TestChanTimeoutExactnessProperty(t *testing.T) {
	f := func(ms uint16) bool {
		d := time.Duration(ms%5000+1) * time.Millisecond
		s := New()
		ch := NewChan[int](s, "prop-timeout", 0)
		exact := false
		err := s.Run("main", func() {
			_, res := ch.RecvTimeout(d)
			exact = res == RecvTimedOut && s.Now() == d
		})
		return err == nil && exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// chanScript drives a channel of capacity 8, seeded with four first slots
// or not, through every way its storage is used, and returns what each
// operation saw, in order: it fills the first slots, wraps inside them,
// grows past them, blocks senders beyond the capacity, hands values to
// receivers woken in one instant (buffering one more before they resume),
// and closes with senders blocked, whose values the close truncates.
func chanScript(t *testing.T, seeded bool) []string {
	t.Helper()
	s := New()
	var ch Chan[int]
	if seeded {
		ch.InitFirst(s, label("script"), 8, make([]int, 4))
	} else {
		ch.Init(s, label("script"), 8)
	}
	var log []string
	note := func(format string, args ...any) {
		log = append(log, s.Now().String()+" "+fmt.Sprintf(format, args...))
	}
	trySend := func(from, to int) {
		for v := from; v <= to; v++ {
			note("trysend %d %t len %d", v, ch.TrySend(v), ch.Len())
		}
	}
	recv := func(who string) {
		v, ok := ch.Recv()
		note("%s recv %d %t", who, v, ok)
	}
	sender := func(v int) {
		s.Go("sender", func() {
			defer func() {
				if r := recover(); r != nil {
					note("sender %d: %v", v, r)
				}
			}()
			ch.Send(v)
			note("sent %d", v)
		})
	}
	err := s.Run("main", func() {
		trySend(1, 4) // the first slots, full
		recv("main")
		recv("main")
		trySend(5, 6)  // wraps inside them
		trySend(7, 11) // grows past them to the capacity; 11 does not fit
		sender(11)
		sender(12)
		s.Sleep(time.Second) // both block, their values beyond the capacity
		for range 10 {       // wakes both senders on the way
			recv("main")
		}
		s.Sleep(time.Second)
		for _, who := range []string{"r0", "r1", "r2"} {
			s.Go(who, func() { recv(who) })
		}
		s.Sleep(time.Second) // three receivers wait
		trySend(13, 16)      // three handed over, 16 buffered before they resume
		s.Sleep(time.Second)
		recv("main")
		trySend(17, 24)
		sender(25)
		sender(26)
		s.Sleep(time.Second)
		ch.Close() // the blocked senders panic; their values go
		s.Sleep(time.Second)
		for ok := true; ok; {
			var v int
			v, ok = ch.Recv()
			note("drain %d %t", v, ok)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return log
}

// TestChanFirstSlotsChangeNothing: first slots are storage and nothing else.
// A seeded channel and an unseeded one, driven alike, see alike.
func TestChanFirstSlotsChangeNothing(t *testing.T) {
	seeded, plain := chanScript(t, true), chanScript(t, false)
	if !slices.Equal(seeded, plain) {
		t.Fatalf("seeded and unseeded channels differ:\nseeded:\n%s\nunseeded:\n%s",
			strings.Join(seeded, "\n"), strings.Join(plain, "\n"))
	}
	// And what they both saw is a channel's FIFO: every value is received
	// once, in order, but 25 and 26, whose senders the close refused.
	var got []int
	for _, line := range plain {
		f := strings.Fields(line) // "<at> <who> recv <v> <ok>" or "<at> drain <v> <ok>"
		if f[len(f)-1] == "true" && (f[1] == "drain" || len(f) == 5 && f[2] == "recv") {
			v, _ := strconv.Atoi(f[len(f)-2])
			got = append(got, v)
		}
	}
	var want []int
	for v := 1; v <= 24; v++ {
		want = append(want, v)
	}
	if !slices.Equal(got, want) {
		t.Errorf("received %v, want 1..24 in order\n%s", got, strings.Join(plain, "\n"))
	}
	for _, v := range []int{25, 26} {
		if !slices.Contains(plain, fmt.Sprintf("5s sender %d: vtime: send on closed channel script", v)) {
			t.Errorf("sender %d did not panic at the close\n%s", v, strings.Join(plain, "\n"))
		}
	}
}

// TestChanFirstSlotsAllocateNothing pins that a new channel's first
// len(first) sends and receives take no storage but its owner's; without
// first slots, the first send grows the ring.
func TestChanFirstSlotsAllocateNothing(t *testing.T) {
	type owner struct {
		ch    Chan[int]
		first [4]int
	}
	s := New()
	err := s.Run("main", func() {
		for _, seeded := range []bool{true, false} {
			owners := make([]owner, 101) // AllocsPerRun calls once more than it counts
			for i := range owners {
				if o := &owners[i]; seeded {
					o.ch.InitFirst(s, nil, 16, o.first[:])
				} else {
					o.ch.Init(s, nil, 16)
				}
			}
			next := 0
			allocs := testing.AllocsPerRun(100, func() {
				ch := &owners[next].ch
				next++
				for v := range 4 {
					ch.TrySend(v)
				}
				for range 4 {
					ch.TryRecv()
				}
			})
			want := 0.0
			if !seeded {
				want = 1
			}
			if allocs != want {
				t.Errorf("seeded %t: 4 sends and 4 receives on a new channel allocated %v times, want %v", seeded, allocs, want)
			}
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestChanFirstSlotsBadLength: first slots that are not a power of two, or
// more than the capacity, are a bug the channel names at once.
func TestChanFirstSlotsBadLength(t *testing.T) {
	for _, tc := range []struct{ n, capacity int }{{0, 4}, {3, 4}, {6, 8}, {8, 4}, {1, 0}} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "first slots") {
					t.Errorf("%d first slots, capacity %d: recovered %q, want a panic", tc.n, tc.capacity, r)
				}
			}()
			var ch Chan[int]
			ch.InitFirst(New(), nil, tc.capacity, make([]int, tc.n))
		}()
	}
}

// A channel is Quiet once nothing will touch it again: closed, nothing
// buffered, nothing handed to a woken receiver that has not resumed, nobody
// waiting to send or receive and no arrival task. A receiver woken by the
// close does not keep it from being quiet: it does not touch the channel
// when it resumes. Init then makes it as new, with its first slots again.
func TestChanQuiet(t *testing.T) {
	s := New()
	var first [2]int
	var ch Chan[int]
	ch.InitFirst(s, nil, 4, first[:])
	task := newStepTask(s, func() {})
	var log []string
	quiet := func(when string, want bool) {
		if ch.Quiet() != want {
			t.Errorf("%s: Quiet() = %v, want %v", when, !want, want)
		}
	}
	err := s.Run("main", func() {
		quiet("open and empty", false)
		s.Go("receiver", func() {
			_, ok := ch.Recv()
			log = append(log, "receiver: "+strconv.FormatBool(ok))
		})
		s.Sleep(time.Second)
		ch.TrySend(1) // handed to the receiver, which has not resumed
		ch.Close()
		quiet("a value handed to a woken receiver", false)
		s.Sleep(time.Second)
		quiet("closed after the receiver took its value", true)

		ch.Init(s, nil, 4)
		ch.ReadyOnArrival(&task.Task)
		ch.TrySend(2)
		ch.TrySend(3)
		ch.Close()
		quiet("closed with two values buffered", false)
		ch.TryRecv()
		ch.TryRecv()
		quiet("closed and drained", true)

		ch.InitFirst(s, nil, 4, first[:])
		s.Go("waiter", func() {
			_, ok := ch.Recv()
			log = append(log, "waiter: "+strconv.FormatBool(ok))
		})
		s.Sleep(time.Second)
		ch.Close()
		quiet("a receiver woken by the close, not yet resumed", true)
		ch.InitFirst(s, nil, 4, first[:])
		quiet("made new", false)
		if !ch.TrySend(4) || ch.Len() != 1 || ch.IsClosed() {
			t.Errorf("a channel made new by Init: len %d, closed %v", ch.Len(), ch.IsClosed())
		}
		s.Sleep(time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if want := []string{"receiver: true", "waiter: false"}; !slices.Equal(log, want) {
		t.Errorf("log %q, want %q", log, want)
	}
}
