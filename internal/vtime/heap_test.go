package vtime

import (
	"container/heap"
	"testing"
)

// heapQueue is the original binary-heap timer engine, retained here as the
// reference scheduler: the differential kernel-equivalence suite runs every
// scenario on it and on the wheel and asserts byte-identical output. It is
// exact but O(log n) per operation, which is why the wheel replaced it.
type heapQueue struct {
	h timerHeap
}

func newHeapQueue() *heapQueue { return &heapQueue{} }

func (q *heapQueue) push(e *timerEntry) { heap.Push(&q.h, e) }

func (q *heapQueue) pop() *timerEntry {
	if len(q.h) == 0 {
		return nil
	}
	return heap.Pop(&q.h).(*timerEntry)
}

func (q *heapQueue) remove(e *timerEntry) { heap.Remove(&q.h, int(e.index)) }

func (q *heapQueue) len() int { return len(q.h) }

type timerHeap []*timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = int32(i), int32(j)
}
func (h *timerHeap) Push(x any) {
	e := x.(*timerEntry)
	e.index = int32(len(*h))
	*h = append(*h, e)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	entry := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return entry
}

// bothEngines names the two timer stores this package's tests run kernels
// on, and newSimOn builds a kernel on one of them.
var bothEngines = []string{"wheel", "heap"}

func newSimOn(engine string, seed int64) *Sim {
	s := NewSeeded(seed)
	if engine == "heap" {
		s.timers = newHeapQueue()
	}
	return s
}

// The equivalence suite compares nothing unless the hook it builds its heap
// kernels through takes effect, and stops taking effect when restored.
func TestUseHeapTimers(t *testing.T) {
	restore := UseHeapTimers()
	onHeap := New()
	restore()
	onWheel := New()
	if _, ok := onHeap.timers.(*heapQueue); !ok {
		t.Errorf("a kernel built under UseHeapTimers keeps its timers in a %T", onHeap.timers)
	}
	if _, ok := onWheel.timers.(*timerWheel); !ok {
		t.Errorf("a kernel built after restore keeps its timers in a %T", onWheel.timers)
	}
}
