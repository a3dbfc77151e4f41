package vtime

import "math/bits"

// timerWheel is the kernel's timer engine: a hierarchical timing wheel with
// a calendar-queue overflow level. It delivers entries in exactly the same
// (when, seq) order as the reference heap, but push and pop are O(1)
// amortized, which is what keeps a 10⁶-job simulation inside single-digit
// minutes.
//
// Layout. Virtual time is quantized into ticks of 2^wheelTickShift ns
// (≈8.2µs). Five levels of 64 slots each cover spans of 64, 64², … 64⁵
// ticks ahead of the wheel cursor; entries beyond the last level land in a
// calendar of overflow buckets keyed by epoch (tick >> 30, ≈2.4h each).
// Entries at or before the cursor's tick sit in a small "due" min-heap
// ordered by (when, seq) — only same-tick collisions pay the log cost.
//
// The cursor advances lazily: pop drains the due heap, and when it is
// empty finds the minimal occupied region across all levels and the
// overflow calendar (per-level uint64 occupancy bitmaps make this a
// rotate + trailing-zeros), advances the cursor to that region's start —
// safe, because nothing earlier is pending — and cascades the region's
// entries back through place(). A cascaded entry always lands strictly
// below its previous level (its delta from the new cursor is smaller than
// the old level's slot span), so each entry is touched at most
// wheelLevels+1 times over its life: O(1) amortized.
//
// Cancelled entries are discarded lazily when popped, exactly as the
// reference heap does; the kernel tracks the live count separately.
type timerWheel struct {
	cursor   int64 // current tick; only advances
	due      dueHeap
	slots    [wheelLevels][wheelSlots][]*timerEntry
	occupied [wheelLevels]uint64
	overflow map[int64][]*timerEntry
	count    int
}

const (
	wheelTickShift = 13 // 1 tick = 2^13 ns ≈ 8.2µs
	wheelLevelBits = 6
	wheelSlots     = 1 << wheelLevelBits
	wheelMask      = wheelSlots - 1
	wheelLevels    = 5
	// overflowShift converts a tick index to its overflow epoch: one epoch
	// spans the whole wheel (64⁵ ticks ≈ 2.4h of virtual time).
	overflowShift = wheelLevelBits * wheelLevels
)

func newTimerWheel() *timerWheel { return &timerWheel{} }

func (w *timerWheel) push(e *timerEntry) {
	w.count++
	w.place(e)
}

func (w *timerWheel) pop() *timerEntry {
	for {
		if len(w.due.h) > 0 {
			w.count--
			return w.due.pop()
		}
		if !w.advance() {
			return nil
		}
	}
}

func (w *timerWheel) len() int { return w.count }

// place files e by its distance from the cursor: due heap (at or before the
// cursor's tick), a wheel level, or an overflow bucket. Slot indexes are
// absolute (tick >> levelShift, mod 64), so an entry's slot never depends
// on where the cursor happened to be when it was pushed.
//
// The level is chosen by unit-index distance, not tick delta: level l takes
// entries whose level-l unit lies within 63 units of the cursor's. A raw
// tick-delta bound (delta < 64^(l+1)) admits entries exactly 64 units ahead
// when the two phases straddle a unit boundary, which aliases onto the
// cursor's own occupancy bit and corrupts the wrap-around slot mapping —
// the classic hierarchical-wheel off-by-one. Index distance keeps every
// occupied slot inside (cursor, cursor+63] at its level, making the bitmap
// rotation in advance unambiguous.
func (w *timerWheel) place(e *timerEntry) {
	t := int64(e.when) >> wheelTickShift
	if t <= w.cursor {
		w.due.push(e)
		return
	}
	for l := 0; l < wheelLevels; l++ {
		shift := uint(wheelLevelBits * l)
		if (t>>shift)-(w.cursor>>shift) < wheelSlots {
			idx := (t >> shift) & wheelMask
			w.slots[l][idx] = append(w.slots[l][idx], e)
			w.occupied[l] |= 1 << uint(idx)
			return
		}
	}
	if w.overflow == nil {
		w.overflow = make(map[int64][]*timerEntry)
	}
	epoch := t >> overflowShift
	w.overflow[epoch] = append(w.overflow[epoch], e)
}

// advance moves the cursor to the earliest occupied region — the minimal
// slot start across all levels, or the minimal overflow epoch if that
// starts sooner — and cascades its entries down. It reports false when the
// wheel holds no entries outside the due heap.
//
// Choosing the minimal *start* is sound even though a coarse slot's start
// underestimates its entries' deadlines: cascading is a pure refinement
// (entries re-file relative to the new cursor without firing), and the
// next iteration compares the finer candidates. Ties prefer the finest
// level, so a due entry is never delayed behind a coarse cascade.
func (w *timerWheel) advance() bool {
	bestLevel := -1
	var bestStart, bestIdx int64
	for l := 0; l < wheelLevels; l++ {
		occ := w.occupied[l]
		if occ == 0 {
			continue
		}
		shift := uint(wheelLevelBits * l)
		cl := w.cursor >> shift
		c := int(cl & wheelMask)
		// Rotate so bit i corresponds to slot (c+i) mod 64: the first set
		// bit is the next occupied slot at or after the cursor's, in
		// absolute tick order (slots strictly between the old and new
		// cursor are always empty, so wrap-around is unambiguous).
		rot := bits.RotateLeft64(occ, -c)
		i := int64(bits.TrailingZeros64(rot))
		abs := cl + i
		start := abs << shift
		if bestLevel == -1 || start < bestStart {
			bestLevel, bestStart, bestIdx = l, start, abs&wheelMask
		}
	}
	if len(w.overflow) > 0 {
		minEpoch := int64(-1)
		for epoch := range w.overflow {
			if minEpoch == -1 || epoch < minEpoch {
				minEpoch = epoch
			}
		}
		if oStart := minEpoch << overflowShift; bestLevel == -1 || oStart < bestStart {
			if oStart > w.cursor {
				w.cursor = oStart
			}
			bucket := w.overflow[minEpoch]
			delete(w.overflow, minEpoch)
			for i, e := range bucket {
				w.place(e)
				bucket[i] = nil
			}
			return true
		}
	}
	if bestLevel == -1 {
		return false
	}
	if bestStart > w.cursor {
		w.cursor = bestStart
	}
	slot := w.slots[bestLevel][bestIdx]
	w.slots[bestLevel][bestIdx] = slot[:0]
	w.occupied[bestLevel] &^= 1 << uint(bestIdx)
	for i, e := range slot {
		w.place(e)
		slot[i] = nil
	}
	return true
}

// dueHeap is a minimal (when, seq) min-heap for entries at or before the
// cursor's tick. Unlike the reference heap it holds only one tick's worth
// of entries at a time.
type dueHeap struct {
	h []*timerEntry
}

func (d *dueHeap) push(e *timerEntry) {
	d.h = append(d.h, e)
	i := len(d.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !dueLess(d.h[i], d.h[parent]) {
			break
		}
		d.h[i], d.h[parent] = d.h[parent], d.h[i]
		i = parent
	}
}

func (d *dueHeap) pop() *timerEntry {
	top := d.h[0]
	n := len(d.h) - 1
	d.h[0] = d.h[n]
	d.h[n] = nil
	d.h = d.h[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && dueLess(d.h[right], d.h[left]) {
			least = right
		}
		if !dueLess(d.h[least], d.h[i]) {
			break
		}
		d.h[i], d.h[least] = d.h[least], d.h[i]
		i = least
	}
	return top
}

func dueLess(a, b *timerEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}
