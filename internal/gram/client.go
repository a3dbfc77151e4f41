package gram

import (
	"fmt"
	"time"

	"cogrid/internal/gsi"
	"cogrid/internal/lrm"
	"cogrid/internal/rpc"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// CallTimeout bounds individual GRAM calls. Submissions include
// initgroups and local-manager work, so this is generous.
const CallTimeout = 5 * time.Minute

// Client is an authenticated connection to one gatekeeper.
type Client struct {
	from   *transport.Host
	rpcc   *rpc.Client
	events *vtime.Chan[StateEvent]
	// pump turns the notifications that have arrived into typed state events
	// (see pumper).
	pump vtime.Task
}

// ClientConfig configures dialing a gatekeeper.
type ClientConfig struct {
	Credential gsi.Credential
	Registry   *gsi.Registry
	AuthCost   gsi.CostModel // zero value replaced by gsi.DefaultCost
	// Ctx is the causal span context the connection serves (e.g. one
	// subjob's context). Every call on the client parents under it.
	Ctx trace.Ctx
}

// Dial connects to a gatekeeper and performs mutual authentication. The
// returned client carries the job-state callback stream for jobs submitted
// on this connection.
func Dial(from *transport.Host, contact transport.Addr, cfg ClientConfig) (*Client, error) {
	if cfg.AuthCost == (gsi.CostModel{}) {
		cfg.AuthCost = gsi.DefaultCost
	}
	sim := from.Network().Sim()
	conn, err := from.DialCtx(contact, cfg.Ctx)
	if err != nil {
		return nil, fmt.Errorf("gram: dial %s: %w", contact, err)
	}
	_, err = gsi.ClientHandshake(sim, conn, cfg.Credential, cfg.Registry, cfg.AuthCost)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("gram: authenticate to %s: %w", contact, err)
	}
	c := &Client{
		from:   from,
		rpcc:   rpc.NewClient(sim, conn),
		events: vtime.NewChan[StateEvent](sim, "gram-events:"+contact.String(), 64),
	}
	c.pump.Init(sim, (*pumper)(c))
	c.pump.Ready()
	return c, nil
}

// pumper is the Client's callback pump as a task body: readied whenever a
// notification arrives, it converts every one that has into a typed state
// event, and closes the event stream when the connection has.
type pumper Client

func (p *pumper) RunTask() {
	c := (*Client)(p)
	notes := c.rpcc.Notifications()
	for {
		n, res := notes.RecvTimeout(0)
		switch res {
		case vtime.RecvOK:
			c.callback(n)
		case vtime.RecvClosed:
			c.events.Close()
			return
		default:
			notes.ReadyOnArrival(&c.pump)
			return
		}
	}
}

// callback queues one job-state notification as a typed event. A callback
// that finds the queue full — nobody is consuming Events — is lost, and the
// loss is on the record.
func (c *Client) callback(n rpc.Notification) {
	if n.Method != "job-state" {
		return
	}
	var ev StateEvent
	if n.Decode(&ev) != nil || c.events.TrySend(ev) {
		return
	}
	net := c.from.Network()
	if tr := net.Tracer(); tr.Enabled() {
		tr.InstantCtx(n.Ctx, "gram", "dropped-event", c.from.Name(), ev.Contact, "",
			trace.Arg{Key: "state", Val: ev.State.String()})
	}
	net.Counters().AddKey("gram", "event", "drop", c.from.Name(), 1)
}

// Events returns the job-state callback stream for this connection. The
// channel closes when the connection does.
func (c *Client) Events() *vtime.Chan[StateEvent] { return c.events }

// Close tears down the connection; callbacks stop flowing.
func (c *Client) Close() { c.rpcc.Close() }

// Submit submits an RSL job specification and returns its job contact.
// The call returns after the gatekeeper has authenticated the request,
// resolved groups, and created (fork mode) or queued (batch mode) the job.
func (c *Client) Submit(rslSrc string) (string, error) {
	var reply submitReply
	if err := c.rpcc.Call("submit", submitArgs{RSL: rslSrc}, &reply, CallTimeout); err != nil {
		return "", err
	}
	return reply.JobContact, nil
}

// Cancel kills the job with the given contact.
func (c *Client) Cancel(contact string) error {
	return c.CancelTimeout(contact, CallTimeout)
}

// CancelTimeout is Cancel with a caller-chosen deadline, for best-effort
// cleanup paths that must detect an unresponsive resource manager
// quickly rather than blocking for the full CallTimeout.
func (c *Client) CancelTimeout(contact string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = CallTimeout
	}
	return c.rpcc.Call("cancel", contactArgs{JobContact: contact}, nil, timeout)
}

// Suspend pauses the job's processes.
func (c *Client) Suspend(contact string) error {
	return c.rpcc.Call("signal", signalArgs{JobContact: contact, Signal: "suspend"}, nil, CallTimeout)
}

// Resume continues a suspended job.
func (c *Client) Resume(contact string) error {
	return c.rpcc.Call("signal", signalArgs{JobContact: contact, Signal: "resume"}, nil, CallTimeout)
}

// Status polls a job's state.
func (c *Client) Status(contact string) (lrm.JobState, string, error) {
	var reply statusReply
	if err := c.rpcc.Call("status", contactArgs{JobContact: contact}, &reply, CallTimeout); err != nil {
		return 0, "", err
	}
	return reply.State, reply.Reason, nil
}

// Reservation is a remotely held advance reservation.
type Reservation struct {
	ID    string
	Start time.Duration
	End   time.Duration
	Count int
}

// Reserve books count processors for [start, start+duration) — the
// reservation extension the paper's Section 5 identifies as future work.
func (c *Client) Reserve(count int, start, duration time.Duration) (Reservation, error) {
	var reply reserveReply
	err := c.rpcc.Call("reserve", reserveArgs{Count: count, Start: start, Duration: duration}, &reply, CallTimeout)
	if err != nil {
		return Reservation{}, err
	}
	return Reservation{ID: reply.ID, Start: reply.Start, End: reply.End, Count: reply.Count}, nil
}

// CancelReservation releases a reservation.
func (c *Client) CancelReservation(id string) error {
	return c.rpcc.Call("cancelreservation", struct {
		ID string `json:"id"`
	}{ID: id}, nil, CallTimeout)
}

// EarliestSlot queries when count processors could next be reserved for
// duration, at or after notBefore.
func (c *Client) EarliestSlot(count int, duration, notBefore time.Duration) (time.Duration, error) {
	var reply struct {
		Start time.Duration `json:"start"`
	}
	err := c.rpcc.Call("earliestslot", slotArgs{Count: count, Duration: duration, NotBefore: notBefore}, &reply, CallTimeout)
	return reply.Start, err
}
