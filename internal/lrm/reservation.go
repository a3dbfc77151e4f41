package lrm

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Reservation is an advance reservation of processors for a time window —
// the local-manager capability the paper argues co-allocation ultimately
// requires (Sections 2.2 and 5, and [13]).
//
// Reserved capacity is carved out of the batch queue's view for the whole
// window; admission checks reservations against each other and machine
// size. This models a manager whose reservations take priority over the
// best-effort queue.
type Reservation struct {
	ID    string
	Start time.Duration
	End   time.Duration
	Count int
}

// Errors returned by reservation operations.
var (
	ErrReservationConflict = errors.New("lrm: reservation conflicts with existing reservations")
	ErrReservationExpired  = errors.New("lrm: reservation window has ended")
	ErrPastStart           = errors.New("lrm: reservation start is in the past")
)

// reservedAt sums reservation carve-outs active at time t.
func (m *Machine) reservedAt(t time.Duration) int {
	total := 0
	for _, r := range m.reservations {
		if r.Start <= t && t < r.End {
			total += r.Count
		}
	}
	return total
}

// Reserve books count processors for [start, start+duration). It fails if
// the window would oversubscribe the machine against existing
// reservations.
func (m *Machine) Reserve(count int, start, duration time.Duration) (*Reservation, error) {
	if m.down {
		return nil, ErrMachineDown
	}
	if count <= 0 {
		return nil, ErrBadCount
	}
	if count > m.processors {
		return nil, ErrTooLarge
	}
	if start < m.sim.Now() {
		return nil, ErrPastStart
	}
	end := start + duration
	// Capacity must hold at every point of the window; checking at all
	// reservation boundaries inside the window suffices.
	points := []time.Duration{start}
	for _, r := range m.reservations {
		if r.Start > start && r.Start < end {
			points = append(points, r.Start)
		}
	}
	for _, p := range points {
		if m.reservedAt(p)+count > m.processors {
			return nil, ErrReservationConflict
		}
	}
	m.nextResID++
	res := &Reservation{
		ID:    fmt.Sprintf("%s/res%d", m.name, m.nextResID),
		Start: start,
		End:   end,
		Count: count,
	}
	m.reservations[res.ID] = res
	return res, nil
}

// CancelReservation releases a reservation.
func (m *Machine) CancelReservation(id string) {
	delete(m.reservations, id)
}

// Reservations lists current reservations sorted by start time.
func (m *Machine) Reservations() []*Reservation {
	out := make([]*Reservation, 0, len(m.reservations))
	for _, r := range m.reservations {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// EarliestSlot finds the earliest start at or after notBefore when count
// processors can be reserved for duration, considering existing
// reservations. The best-effort batch queue is not consulted: reservations
// preempt it by construction.
func (m *Machine) EarliestSlot(count int, duration, notBefore time.Duration) (time.Duration, error) {
	if count <= 0 {
		return 0, ErrBadCount
	}
	if count > m.processors {
		return 0, ErrTooLarge
	}
	if now := m.sim.Now(); notBefore < now {
		notBefore = now
	}
	// Candidate starts: notBefore and every reservation end after it.
	candidates := []time.Duration{notBefore}
	for _, r := range m.reservations {
		if r.End > notBefore {
			candidates = append(candidates, r.End)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	for _, start := range candidates {
		if m.windowFits(count, start, start+duration) {
			return start, nil
		}
	}
	return 0, ErrReservationConflict
}

// windowFits reports whether count processors are free of
// reservations throughout [start, end).
func (m *Machine) windowFits(count int, start, end time.Duration) bool {
	points := []time.Duration{start}
	for _, r := range m.reservations {
		if r.Start > start && r.Start < end {
			points = append(points, r.Start)
		}
	}
	for _, p := range points {
		if m.reservedAt(p)+count > m.processors {
			return false
		}
	}
	return true
}

// startReserved waits for the reservation window, launches the job, and
// enforces the window's end as a hard limit.
func (m *Machine) startReserved(job *Job, res *Reservation) {
	m.sim.SleepUntil(res.Start)
	if m.sim.Now() >= res.End {
		m.finishJob(job, StateFailed, ErrReservationExpired.Error())
		return
	}
	m.launch(job)
	m.sim.AfterFuncPassive(res.End-m.sim.Now(), func() {
		m.finishJob(job, StateFailed, "reservation window ended")
	})
	job.done.Wait()
	m.CancelReservation(res.ID)
}
