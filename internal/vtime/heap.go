package vtime

import "container/heap"

// heapQueue is the original binary-heap timer engine, retained as the
// reference scheduler: the differential kernel-equivalence suite runs every
// scenario on both engines and asserts byte-identical output. It is exact
// but O(log n) per operation, which is why the wheel replaced it as the
// default.
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
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	entry := x.(*timerEntry)
	entry.index = len(*h)
	*h = append(*h, entry)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	entry := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return entry
}
