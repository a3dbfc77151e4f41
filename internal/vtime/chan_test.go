package vtime

import (
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
