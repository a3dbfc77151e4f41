// Package reservation implements co-reservation: the extension the
// paper's Section 5 identifies as future work ("we are currently
// investigating ... how the co-allocation approaches presented in this
// paper can be applied to co-reservation as well as co-allocation",
// reference [13]).
//
// CoReserve negotiates a common start time across machines by iterating
// earliest-slot queries to a fixpoint, then books all reservations
// atomically (backing off and retrying on admission races). The result
// converts directly into a DUROC request whose subjobs are bound to the
// reservations, so the ordinary interactive-transaction machinery starts
// the application exactly when the window opens.
package reservation

import (
	"errors"
	"fmt"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/gram"
	"cogrid/internal/transport"
)

// Errors returned by co-reservation.
var (
	ErrNoCommonSlot = errors.New("reservation: no common slot found")
	ErrEmpty        = errors.New("reservation: no participants")
)

// maxRounds bounds the negotiation.
const maxRounds = 16

// Participant is one machine's share of a co-reservation.
type Participant struct {
	Contact transport.Addr
	Count   int
}

// Options configures CoReserve.
type Options struct {
	// Duration is the reserved window length.
	Duration time.Duration
	// Earliest is the earliest acceptable start (0 = now).
	Earliest time.Duration
	// Backoff is added to the candidate time after a booking race
	// (default 1 minute).
	Backoff time.Duration
}

// CoReservation is a successfully negotiated set of reservations sharing
// one start time.
type CoReservation struct {
	Start        time.Duration
	End          time.Duration
	Participants []Participant
	Reservations []gram.Reservation

	clients []*gram.Client
}

// CoReserve negotiates and books a common window on every participant.
// The from host dials each machine with cfg credentials. On success the
// returned CoReservation holds open GRAM connections; release them with
// Cancel or Close.
func CoReserve(from *transport.Host, cfg gram.ClientConfig, parts []Participant, opts Options) (*CoReservation, error) {
	if len(parts) == 0 {
		return nil, ErrEmpty
	}
	if opts.Backoff == 0 {
		opts.Backoff = time.Minute
	}
	cr := &CoReservation{Participants: parts}
	for _, p := range parts {
		client, err := gram.Dial(from, p.Contact, cfg)
		if err != nil {
			cr.Close()
			return nil, fmt.Errorf("reservation: dial %s: %w", p.Contact, err)
		}
		cr.clients = append(cr.clients, client)
	}

	candidate := opts.Earliest
	for round := 0; round < maxRounds; round++ {
		// Fixpoint pass: raise the candidate until every machine can
		// honor it.
		stable := false
		for !stable {
			stable = true
			for i, p := range parts {
				slot, err := cr.clients[i].EarliestSlot(p.Count, opts.Duration, candidate)
				if err != nil {
					cr.Close()
					return nil, fmt.Errorf("reservation: earliest slot on %s: %w", p.Contact, err)
				}
				if slot > candidate {
					candidate = slot
					stable = false
				}
			}
		}
		// Booking pass: reserve everywhere; on a race, release and retry
		// later.
		booked := make([]gram.Reservation, 0, len(parts))
		ok := true
		for i, p := range parts {
			res, err := cr.clients[i].Reserve(p.Count, candidate, opts.Duration)
			if err != nil {
				ok = false
				break
			}
			booked = append(booked, res)
		}
		if ok {
			cr.Start = candidate
			cr.End = candidate + opts.Duration
			cr.Reservations = booked
			return cr, nil
		}
		for i, res := range booked {
			cr.clients[i].CancelReservation(res.ID)
		}
		candidate += opts.Backoff
	}
	cr.Close()
	return nil, fmt.Errorf("%w after %d rounds", ErrNoCommonSlot, maxRounds)
}

// Request builds a DUROC request that claims the co-reservation: one
// required subjob per participant, bound to its reservation, with a
// startup timeout covering the wait until the window opens (measured from
// now) plus slack.
func (cr *CoReservation) Request(executable string, now time.Duration, slack time.Duration) core.Request {
	if slack == 0 {
		slack = 5 * time.Minute
	}
	var req core.Request
	for i, p := range cr.Participants {
		req.Subjobs = append(req.Subjobs, core.SubjobSpec{
			Label:          fmt.Sprintf("res-%s-%d", p.Contact.Host, i),
			Contact:        p.Contact,
			Count:          p.Count,
			Executable:     executable,
			Type:           core.Required,
			ReservationID:  cr.Reservations[i].ID,
			StartupTimeout: cr.Start - now + slack,
		})
	}
	return req
}

// Cancel releases every reservation and closes the connections.
func (cr *CoReservation) Cancel() {
	for i, res := range cr.Reservations {
		if i < len(cr.clients) {
			cr.clients[i].CancelReservation(res.ID)
		}
	}
	cr.Reservations = nil
	cr.Close()
}

// Close releases the GRAM connections without touching the reservations.
func (cr *CoReservation) Close() {
	for _, c := range cr.clients {
		if c != nil {
			c.Close()
		}
	}
	cr.clients = nil
}
