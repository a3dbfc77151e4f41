// Package core implements DUROC, the Dynamically Updated Resource Online
// Co-allocator — the paper's primary contribution — together with the
// application-side runtime library.
//
// A co-allocation request is a set of subjobs, each bound to one GRAM
// resource manager and classified as required, interactive, or optional
// (Section 3.2). The controller submits subjobs sequentially (the
// pipelining the paper's Figures 4 and 5 analyze), monitors GRAM
// callbacks, and lets the co-allocation agent edit the request — add,
// delete, substitute — until commit. Application processes call the
// runtime's Barrier; the two-phase commit releases them together with the
// configuration information of Section 3.3 (subjob count and sizes,
// global ranks, and an address book enabling intra- and inter-subjob
// communication).
//
// Failure semantics follow the paper exactly: a required subjob's failure
// or timeout terminates the whole computation, before or after commit; an
// interactive subjob's failure triggers a callback so the agent can delete
// or substitute it; optional subjobs do not participate in commitment and
// join the computation as and when they become active.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cogrid/internal/rsl"
	"cogrid/internal/transport"
	"cogrid/internal/wire"
)

// SubjobType classifies a subjob's failure semantics (Section 3.2).
type SubjobType int

const (
	// Required: failure or timeout terminates the entire computation.
	Required SubjobType = iota
	// Interactive: failure or timeout triggers a callback; the agent can
	// delete the subjob or substitute another resource.
	Interactive
	// Optional: does not participate in commitment; failure is ignored.
	Optional
)

func (t SubjobType) String() string {
	switch t {
	case Required:
		return "required"
	case Interactive:
		return "interactive"
	case Optional:
		return "optional"
	}
	return "invalid"
}

// ParseSubjobType parses the RSL subjobStartType attribute value.
func ParseSubjobType(s string) (SubjobType, error) {
	switch s {
	case "required":
		return Required, nil
	case "interactive":
		return Interactive, nil
	case "optional":
		return Optional, nil
	}
	return 0, fmt.Errorf("duroc: unknown subjobStartType %q", s)
}

// SubjobSpec describes one subjob of a co-allocation request.
type SubjobSpec struct {
	// Label identifies the subjob within the request. Auto-generated when
	// empty.
	Label string
	// Contact is the GRAM resource manager to submit to.
	Contact transport.Addr
	// Count is the number of processes.
	Count int
	// Executable names the registered application executable.
	Executable string
	// Type is the failure-semantics class.
	Type SubjobType
	// MaxTime is the batch wall-time limit (0 = none).
	MaxTime time.Duration
	// StartupTimeout bounds the time from submission to full barrier
	// check-in; zero is 10 minutes. For subjobs bound to an
	// advance reservation it must cover the wait until the window opens.
	StartupTimeout time.Duration
	// ReservationID binds the subjob to an advance reservation on the
	// target machine (the co-reservation extension of Section 5).
	ReservationID string
}

// Request is a co-allocation request: the editable set of subjobs.
type Request struct {
	Subjobs []SubjobSpec
}

// ParseRequest parses a Figure 1-style RSL multirequest. Recognized
// per-subjob attributes: resourceManagerContact (required), count
// (required), executable (required), subjobStartType (default required),
// label, maxTime (minutes).
func ParseRequest(src string) (Request, error) {
	node, err := rsl.Parse(src)
	if err != nil {
		return Request{}, err
	}
	subs, err := rsl.Subrequests(node)
	if err != nil {
		return Request{}, err
	}
	var req Request
	for i, sub := range subs {
		spec, err := parseSubjob(sub)
		if err != nil {
			return Request{}, fmt.Errorf("duroc: subjob %d: %w", i, err)
		}
		req.Subjobs = append(req.Subjobs, spec)
	}
	return req, nil
}

func parseSubjob(node rsl.Node) (SubjobSpec, error) {
	var spec SubjobSpec
	contact, ok, err := rsl.GetString(node, "resourceManagerContact", nil)
	if err != nil || !ok {
		return spec, fmt.Errorf("missing resourceManagerContact (%v)", err)
	}
	addr, err := transport.ParseAddr(contact)
	if err != nil {
		return spec, err
	}
	spec.Contact = addr
	if spec.Count, ok, err = rsl.GetInt(node, "count", nil); err != nil || !ok {
		return spec, fmt.Errorf("missing or bad count (%v)", err)
	}
	if spec.Executable, ok, err = rsl.GetString(node, "executable", nil); err != nil || !ok {
		return spec, fmt.Errorf("missing executable (%v)", err)
	}
	if st, present, err := rsl.GetString(node, "subjobStartType", nil); err != nil {
		return spec, err
	} else if present {
		if spec.Type, err = ParseSubjobType(st); err != nil {
			return spec, err
		}
	}
	if label, present, err := rsl.GetString(node, "label", nil); err != nil {
		return spec, err
	} else if present {
		spec.Label = label
	}
	if minutes, present, err := rsl.GetInt(node, "maxTime", nil); err != nil {
		return spec, err
	} else if present {
		spec.MaxTime = time.Duration(minutes) * time.Minute
	}
	if resID, present, err := rsl.GetString(node, "reservationID", nil); err != nil {
		return spec, err
	} else if present {
		spec.ReservationID = resID
	}
	return spec, nil
}

// RSL renders the request as a multirequest expression.
func (r Request) RSL() string {
	multi := &rsl.Boolean{Op: rsl.Multi}
	for _, s := range r.Subjobs {
		multi.Children = append(multi.Children, s.rslNode())
	}
	return multi.String()
}

func (s SubjobSpec) rslNode() rsl.Node {
	pairs := [][2]string{
		{"resourceManagerContact", s.Contact.String()},
		{"count", strconv.Itoa(s.Count)},
		{"executable", s.Executable},
		{"subjobStartType", s.Type.String()},
	}
	if s.Label != "" {
		pairs = append(pairs, [2]string{"label", s.Label})
	}
	if s.MaxTime > 0 {
		pairs = append(pairs, [2]string{"maxTime", strconv.Itoa(int(s.MaxTime / time.Minute))})
	}
	if s.ReservationID != "" {
		pairs = append(pairs, [2]string{"reservationID", s.ReservationID})
	}
	return rsl.Conj(pairs...)
}

// SubjobStatus is the lifecycle state of a subjob within a co-allocation.
type SubjobStatus int

const (
	// SJQueued: waiting for the controller to submit it.
	SJQueued SubjobStatus = iota
	// SJSubmitted: GRAM accepted the request.
	SJSubmitted
	// SJActive: processes created, not all checked in.
	SJActive
	// SJCheckedIn: every process reached the co-allocation barrier.
	SJCheckedIn
	// SJReleased: the barrier was released; the subjob is computing.
	SJReleased
	// SJDone: the subjob finished after release.
	SJDone
	// SJFailed: the subjob failed or timed out.
	SJFailed
	// SJDeleted: removed from the request by an edit.
	SJDeleted
)

func (s SubjobStatus) String() string {
	switch s {
	case SJQueued:
		return "queued"
	case SJSubmitted:
		return "submitted"
	case SJActive:
		return "active"
	case SJCheckedIn:
		return "checked-in"
	case SJReleased:
		return "released"
	case SJDone:
		return "done"
	case SJFailed:
		return "failed"
	case SJDeleted:
		return "deleted"
	}
	return "invalid"
}

// terminal reports whether the subjob can make no further progress.
func (s SubjobStatus) terminal() bool {
	return s == SJDone || s == SJFailed || s == SJDeleted
}

// EventKind classifies co-allocation events delivered to the agent.
type EventKind int

const (
	// EvSubmitted: GRAM accepted a subjob.
	EvSubmitted EventKind = iota
	// EvActive: a subjob's processes were created.
	EvActive
	// EvCheckedIn: all of a subjob's processes reached the barrier.
	EvCheckedIn
	// EvSubjobFailed: a subjob failed or timed out — the interactive
	// callback of Section 3.2.
	EvSubjobFailed
	// EvSubjobDone: a released subjob finished.
	EvSubjobDone
	// EvCommitted: the configuration was committed and barriers released.
	EvCommitted
	// EvAborted: the co-allocation was terminated before completion.
	EvAborted
	// EvDone: every released subjob finished.
	EvDone
)

func (k EventKind) String() string {
	switch k {
	case EvSubmitted:
		return "submitted"
	case EvActive:
		return "active"
	case EvCheckedIn:
		return "checked-in"
	case EvSubjobFailed:
		return "subjob-failed"
	case EvSubjobDone:
		return "subjob-done"
	case EvCommitted:
		return "committed"
	case EvAborted:
		return "aborted"
	case EvDone:
		return "done"
	}
	return "invalid"
}

// Event is a co-allocation state change.
type Event struct {
	Kind   EventKind
	Label  string
	Type   SubjobType
	Reason string
	At     time.Duration
}

func (e Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "t=%-10v %-13s", e.At, e.Kind)
	if e.Label != "" {
		fmt.Fprintf(&sb, " %s(%s)", e.Label, e.Type)
	}
	if e.Reason != "" {
		sb.WriteString(": ")
		sb.WriteString(e.Reason)
	}
	return sb.String()
}

// Config is the configuration information delivered to each process when
// the barrier releases (Section 3.3). Its two lists, the subjob labels and
// the address book, are read through methods, because a Config holds them
// in the form it got them. One built here (the controller's at commit,
// GRAB's) or decoded from JSON holds []string. One received in the typed
// check-in reply holds the lists' encoding where the reply's frame left it
// and decodes what is asked for, when it is asked: each of the 64 processes
// of an 8 × 8 co-allocation is sent all 64 addresses and reads one, or
// none. Such a Config keeps its frame alive (about 2.5 KB for 64 processes)
// for as long as it is kept, and needs nothing else: the connection it came
// over may close.
type Config struct {
	// NSubjobs is the number of subjobs in the committed configuration.
	NSubjobs int
	// SubjobSizes gives the process count of each committed subjob.
	SubjobSizes []int
	// WorldSize is the total number of processes in the configuration.
	WorldSize int
	// MySubjob is the receiving process's subjob index, or -1 for a late
	// joiner from an optional subjob.
	MySubjob int
	// MyRank is the receiving process's global rank, or -1 for a late
	// joiner.
	MyRank int

	labels, book stringList
}

// stringList is one of a Config's lists in whichever form it arrived; at
// most one of the two is set.
type stringList struct {
	built []string
	// recv is the list as CheckinReply.ParseWire validated it: a read-only
	// sub-slice of the reply's frame.
	recv wire.StringList
}

func (l *stringList) all() []string {
	if l.recv != nil {
		return l.recv.All()
	}
	return l.built
}

func (l *stringList) at(i int) (string, bool) {
	if l.recv != nil {
		return l.recv.At(i)
	}
	if i < 0 || i >= len(l.built) {
		return "", false
	}
	return l.built[i], true
}

// appendWire appends the list as wire.AppendStrings would: a received list
// is those bytes already.
func (l *stringList) appendWire(dst []byte) []byte {
	if l.recv != nil {
		return append(dst, l.recv...)
	}
	return wire.AppendStrings(dst, l.built)
}

// SubjobLabels gives each committed subjob's label. The caller must not
// modify the list. On a received Config every call decodes it afresh (two
// allocations); SubjobLabel reads one.
func (c Config) SubjobLabels() []string { return c.labels.all() }

// SubjobLabel returns the label of the i-th committed subjob; ok is false
// when there is none.
func (c Config) SubjobLabel(i int) (label string, ok bool) { return c.labels.at(i) }

// AddressBook holds each process's listener address, indexed by global
// rank: ranks are assigned subjob-major in committed order. The caller
// must not modify the list. On a received Config every call decodes it
// afresh (two allocations, however long the book); a process that wants
// one peer's address asks Address.
func (c Config) AddressBook() []string { return c.book.all() }

// Address returns the listener address of the process with the given
// global rank: on a received Config one walk to it and one string. ok is
// false when the address book has no such rank.
func (c Config) Address(rank int) (addr string, ok bool) { return c.book.at(rank) }

// SetSubjobLabels makes labels the Config's subjob labels; the Config keeps
// the slice, which must not change afterwards.
func (c *Config) SetSubjobLabels(labels []string) { c.labels = stringList{built: labels} }

// SetAddressBook makes book the Config's address book; the Config keeps the
// slice, which must not change afterwards.
func (c *Config) SetAddressBook(book []string) { c.book = stringList{built: book} }

// configJSON is Config as a JSON-codec peer or a foreign client sees it,
// field for field what it was when the lists were fields.
type configJSON struct {
	NSubjobs     int      `json:"n_subjobs"`
	SubjobSizes  []int    `json:"subjob_sizes"`
	SubjobLabels []string `json:"subjob_labels"`
	WorldSize    int      `json:"world_size"`
	AddressBook  []string `json:"address_book"`
	MySubjob     int      `json:"my_subjob"`
	MyRank       int      `json:"my_rank"`
}

func (c Config) asJSON() configJSON {
	return configJSON{c.NSubjobs, c.SubjobSizes, c.SubjobLabels(), c.WorldSize, c.AddressBook(), c.MySubjob, c.MyRank}
}

// MarshalJSON implements json.Marshaler.
func (c Config) MarshalJSON() ([]byte, error) { return json.Marshal(c.asJSON()) }

// UnmarshalJSON implements json.Unmarshaler. Like the decoding of any
// struct, it leaves a field the input does not name as it was.
func (c *Config) UnmarshalJSON(data []byte) error {
	j := c.asJSON()
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*c = Config{NSubjobs: j.NSubjobs, SubjobSizes: j.SubjobSizes, WorldSize: j.WorldSize, MySubjob: j.MySubjob, MyRank: j.MyRank}
	c.SetSubjobLabels(j.SubjobLabels)
	c.SetAddressBook(j.AddressBook)
	return nil
}

// RankOf returns the global rank of (subjob, localRank) in the committed
// configuration, or -1 if out of range.
func (c Config) RankOf(subjob, localRank int) int {
	if subjob < 0 || subjob >= c.NSubjobs || localRank < 0 || localRank >= c.SubjobSizes[subjob] {
		return -1
	}
	rank := 0
	for i := 0; i < subjob; i++ {
		rank += c.SubjobSizes[i]
	}
	return rank + localRank
}

// Errors returned by co-allocation operations.
var (
	ErrAborted        = errors.New("duroc: co-allocation aborted")
	ErrCommitted      = errors.New("duroc: request already committed")
	ErrNotCommitted   = errors.New("duroc: request not committed")
	ErrNoSuchSubjob   = errors.New("duroc: no such subjob")
	ErrCommitTimeout  = errors.New("duroc: commit timed out")
	ErrSubjobNotReady = errors.New("duroc: subjobs failed and were not edited out")
)
