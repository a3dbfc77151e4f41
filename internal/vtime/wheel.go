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
// Removal. Every entry records where it is filed (e.where: a level, the
// due heap or the overflow calendar) and its index there; its slot and
// epoch follow from e.when. remove swap-removes it from its slot or bucket,
// or removes it from the due heap at its index, so the wheel holds exactly
// the pending timers. Order within a slot or bucket does not matter:
// cascading re-files their entries by (when, seq).
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

	// e.where for an entry that is not in a slot: the due heap or an
	// overflow bucket.
	whereDue      = wheelLevels
	whereOverflow = wheelLevels + 1
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

// remove takes filed entry e out of the wheel.
func (w *timerWheel) remove(e *timerEntry) {
	w.count--
	t := int64(e.when) >> wheelTickShift
	switch l := int(e.where); l {
	case whereDue:
		w.due.remove(int(e.index))
	case whereOverflow:
		epoch := t >> overflowShift
		if b := swapRemove(w.overflow[epoch], e.index); len(b) > 0 {
			w.overflow[epoch] = b
		} else {
			delete(w.overflow, epoch)
		}
	default:
		idx := (t >> uint(wheelLevelBits*l)) & wheelMask
		if w.slots[l][idx] = swapRemove(w.slots[l][idx], e.index); len(w.slots[l][idx]) == 0 {
			w.occupied[l] &^= 1 << uint(idx)
		}
	}
}

// swapRemove removes s[i], moving the last entry into its place.
func swapRemove(s []*timerEntry, i int32) []*timerEntry {
	last := int32(len(s) - 1)
	if i != last {
		s[i] = s[last]
		s[i].index = i
	}
	s[last] = nil
	return s[:last]
}

// file appends e to s, recording where and at which index.
func file(s []*timerEntry, e *timerEntry, where int8) []*timerEntry {
	e.where, e.index = where, int32(len(s))
	return append(s, e)
}

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
			w.slots[l][idx] = file(w.slots[l][idx], e, int8(l))
			w.occupied[l] |= 1 << uint(idx)
			return
		}
	}
	if w.overflow == nil {
		w.overflow = make(map[int64][]*timerEntry)
	}
	epoch := t >> overflowShift
	w.overflow[epoch] = file(w.overflow[epoch], e, whereOverflow)
}

// advance moves the cursor to the earliest occupied region — the minimal
// slot start across all levels and the minimal overflow epoch's start — and
// cascades down every region that starts there, the coarsest first. It
// reports false when the wheel holds no entries outside the due heap.
//
// Choosing the minimal *start* is sound even though a coarse slot's start
// underestimates its entries' deadlines: cascading is a pure refinement
// (entries re-file relative to the new cursor without firing), and the
// next iteration compares the finer candidates. All the regions that start
// at the new cursor are cascaded together because each may hold entries of
// the cursor's own tick: one filed at level 2 while the cursor was far, one
// at level 0 once it was near. Those land in the due heap, which pop drains
// before it advances again, so it must hold all of them first. A cascade
// files nothing into a region starting at the cursor (only into the due
// heap, or into slots that start later), so the starts found before it stay
// exact.
func (w *timerWheel) advance() bool {
	var starts [wheelLevels]int64
	found := false
	var best int64
	for l := 0; l < wheelLevels; l++ {
		occ := w.occupied[l]
		if occ == 0 {
			starts[l] = -1
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
		starts[l] = (cl + int64(bits.TrailingZeros64(rot))) << shift
		if !found || starts[l] < best {
			found, best = true, starts[l]
		}
	}
	minEpoch := int64(-1)
	for epoch := range w.overflow {
		if minEpoch == -1 || epoch < minEpoch {
			minEpoch = epoch
		}
	}
	if minEpoch != -1 {
		if oStart := minEpoch << overflowShift; !found || oStart < best {
			found, best = true, oStart
		}
	}
	if !found {
		return false
	}
	if best > w.cursor {
		w.cursor = best
	}
	if minEpoch != -1 && minEpoch<<overflowShift == best {
		bucket := w.overflow[minEpoch]
		delete(w.overflow, minEpoch)
		for i, e := range bucket {
			w.place(e)
			bucket[i] = nil
		}
	}
	for l := wheelLevels - 1; l >= 0; l-- {
		if starts[l] != best {
			continue
		}
		idx := (best >> uint(wheelLevelBits*l)) & wheelMask
		slot := w.slots[l][idx]
		w.slots[l][idx] = slot[:0]
		w.occupied[l] &^= 1 << uint(idx)
		for i, e := range slot {
			w.place(e)
			slot[i] = nil
		}
	}
	return true
}

// dueHeap is a minimal (when, seq) min-heap for entries at or before the
// cursor's tick. Unlike the reference heap it holds only one tick's worth
// of entries at a time. Each entry's index is its position in h.
type dueHeap struct {
	h []*timerEntry
}

func (d *dueHeap) push(e *timerEntry) {
	d.h = file(d.h, e, whereDue)
	d.up(len(d.h) - 1)
}

func (d *dueHeap) pop() *timerEntry {
	top := d.h[0]
	d.remove(0)
	return top
}

// remove takes out the entry at index i.
func (d *dueHeap) remove(i int) {
	n := len(d.h) - 1
	if i != n {
		d.swap(i, n)
	}
	d.h[n] = nil
	d.h = d.h[:n]
	if i != n {
		d.down(i)
		d.up(i)
	}
}

func (d *dueHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !dueLess(d.h[i], d.h[parent]) {
			break
		}
		d.swap(i, parent)
		i = parent
	}
}

func (d *dueHeap) down(i int) {
	n := len(d.h)
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
		d.swap(i, least)
		i = least
	}
}

func (d *dueHeap) swap(i, j int) {
	d.h[i], d.h[j] = d.h[j], d.h[i]
	d.h[i].index, d.h[j].index = int32(i), int32(j)
}

func dueLess(a, b *timerEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}
