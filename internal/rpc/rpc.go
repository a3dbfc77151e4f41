// Package rpc provides a small request/reply and notification protocol
// over simulated transport connections.
//
// A connection carries envelopes in the compact binary frame format of
// internal/wire. Calls expect a matching reply; notifications are one-way,
// from a server to its client, which is how GRAM delivers asynchronous
// job-state callbacks to a connected client.
//
// Bodies are JSON. A message type opts into one of two faster forms by
// implementing two methods: AppendWire (on the value sent) and ParseWire (on
// the pointer received into) for the typed binary form of internal/wire, or
// AppendJSON and ParseJSON for hand-written JSON in exactly encoding/json's
// bytes; see marshalBody and Decode. A typed reply that many callers are
// sent alike ends in a wire.Shared, which its type hands over with
// AppendWireShared instead of AppendWire; the frame then goes out in two
// parts, and the shared one uncopied (Call.Reply).
//
// Nothing here owns a process unless something blocks. The receive side of
// a Client, a Server's listener and every connection a Server accepts each
// belong to a kernel task embedded in their owner (vtime.Task): readied by
// an arrival exactly where a process parked in Recv or Accept would have
// been woken, its step handles every frame (or connection) that has arrived
// and registers for the next. A Handler never blocks: it is handed each call
// as a *Call, a value it answers now or keeps and answers later, from any
// process or task, with Call.Reply, and the connection reads its next frame
// without waiting for that reply. A call whose answer must wait in
// mid-function — a sleep, a call of its own — gets a process for that call
// only, which the handler spawns and which replies when it is done. A
// preamble (a handshake) blocks too, so it runs in a process the accept
// step spawns; once it has accepted the connection, that process runs the
// connection's first step and exits. Decoding, the serve span, the latency
// histogram and the reply frame are one code path (ServerConn.handle,
// Call.Reply).
package rpc

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"cogrid/internal/metrics"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
	"cogrid/internal/wire"
)

// Errors returned by RPC operations.
var (
	ErrTimeout = errors.New("rpc: call timed out")
	ErrClosed  = errors.New("rpc: connection closed")
)

// RemoteError is an application-level error string returned by the remote
// handler.
type RemoteError string

func (e RemoteError) Error() string { return string(e) }

// envCtx returns an envelope's causal span context.
func envCtx(env *wire.Envelope) trace.Ctx { return trace.Ctx{Req: env.Req, Span: env.Span} }

// Notification is an incoming one-way message.
type Notification struct {
	Method string
	Body   json.RawMessage
	// Ctx is the sender's causal span context, when the notification was
	// sent with NotifyCtx.
	Ctx trace.Ctx
}

// Decode unmarshals the notification body into v.
func (n Notification) Decode(v any) error { return Decode(n.Body, v) }

// Client issues calls over a connection and surfaces the notifications the
// server pushes. Create with NewClient; the demux task owns the receive side
// of the connection.
//
// A Client is one allocation and a call on it adds none for the waiting: the
// caller waits on a reply slot (pendingCall), the demux step stores the
// reply envelope there and sets the slot's event. The first outstanding call
// uses the slot in the Client itself, which is every call of a connection
// used by one process at a time; a call made while that slot is taken gets a
// slot of its own in a map made then. The notification queue is embedded,
// and it and the slots are named for a deadlock report only when one is
// written ("rpc-notify:<host>:client", "rpc-reply:<host>:client").
type Client struct {
	sim  *vtime.Sim
	conn *transport.Conn
	out  sender

	nextID uint64
	// first is the slot of the first outstanding call, and firstTaken says a
	// caller holds it: from its call to its return, so past the reply, which
	// it still has to read there. overflow holds the slots of calls made
	// meanwhile, by call id; it is nil until there has been one.
	first      pendingCall
	firstTaken bool
	overflow   map[uint64]*pendingCall
	closed     bool
	dec        wire.Decoder

	// hCall receives every call's virtual round-trip latency (all
	// outcomes, so timeouts shape the tail). Nil without a registry.
	hCall *metrics.Histogram

	notifications vtime.Chan[Notification]

	// demux routes what arrives — replies to their callers, notifications to
	// the queue — whenever something has (see demuxer).
	demux vtime.Task
}

// pendingCall is one call's reply slot. Whoever ends the wait — the demux
// step with the reply, shutdown with closed — first takes the slot out of
// the pending set (take), so exactly one of them writes it, and then sets
// done; the caller reads it once done is set. A caller whose
// wait times out takes the slot itself, and a reply that finds no slot is
// late.
type pendingCall struct {
	id     uint64 // the call waited for; 0 once taken
	done   vtime.Event
	env    wire.Envelope // the reply, unless closed
	closed bool          // the connection closed before a reply came
}

// replySlots and notifyQueue name a Client's reply events and notification
// queue, when a deadlock report asks.
type (
	replySlots  Client
	notifyQueue Client
)

func (c *replySlots) String() string  { return "rpc-reply:" + c.conn.LocalAddr().String() }
func (c *notifyQueue) String() string { return "rpc-notify:" + c.conn.LocalAddr().String() }

// NewClient wraps conn. The caller must not use conn directly afterwards.
func NewClient(sim *vtime.Sim, conn *transport.Conn) *Client {
	c := &Client{
		sim:   sim,
		conn:  conn,
		hCall: conn.Network().Hists().H("rpc.call.latency"),
	}
	c.notifications.Init(sim, (*notifyQueue)(c), 256)
	c.demux.Init(sim, (*demuxer)(c))
	c.out.bind(conn)
	c.demux.Ready() // the peer's prologue may already be there
	return c
}

// await registers a reply slot for call id.
func (c *Client) await(id uint64) *pendingCall {
	p := &c.first
	if c.firstTaken {
		p = new(pendingCall)
		if c.overflow == nil {
			c.overflow = make(map[uint64]*pendingCall)
		}
		c.overflow[id] = p
	}
	c.firstTaken = true
	p.id = id
	p.done.Init(c.sim, (*replySlots)(c))
	return p
}

// take removes call id's slot from the pending set and returns it, or nil if
// the call is no longer waited for: it was answered, it timed out, or the
// client shut down.
func (c *Client) take(id uint64) *pendingCall {
	p := &c.first
	if p.id != id || id == 0 { // no call has id 0, which a free slot holds
		if p = c.overflow[id]; p == nil {
			return nil
		}
		delete(c.overflow, id)
	}
	p.id = 0
	return p
}

// release ends a caller's hold on its slot: the one in the Client is as new
// for the next call, and has let go of the reply's frame.
func (c *Client) release(p *pendingCall) {
	if p == &c.first {
		*p = pendingCall{}
		c.firstTaken = false
	}
}

// Notifications returns the stream of remote-initiated notifications. The
// channel closes when the connection closes.
func (c *Client) Notifications() *vtime.Chan[Notification] { return &c.notifications }

// Conn returns the underlying connection's remote address.
func (c *Client) RemoteAddr() transport.Addr { return c.conn.RemoteAddr() }

// corrID builds the correlation identifier shared by the client call span,
// the server handler span, and any dropped-reply event for one call: the
// connection-pair flow plus the per-connection call id, from tr's string
// table.
func corrID(tr *trace.Tracer, conn *transport.Conn, id uint64) string {
	return tr.Concat(conn.Flow(), "#", tr.Itoa(int(id)))
}

// drain hands frame every message that has arrived on conn, in its own and
// shared parts, and then registers waiter for the next arrival: the step of
// a task that owns a connection's receive side. It reports true once the
// connection is closed and drained, when there is nothing left to wait for.
func drain(conn *transport.Conn, waiter *vtime.Task, frame func(own, shared []byte)) (closed bool) {
	for {
		own, shared, err := conn.TryRecv()
		switch err {
		case nil:
			frame(own, shared)
		case transport.ErrWouldBlock:
			conn.ReadyOnArrival(waiter)
			return false
		default:
			return true
		}
	}
}

// demuxer is the Client's receive side as a task body.
type demuxer Client

func (d *demuxer) RunTask() {
	c := (*Client)(d)
	if drain(c.conn, &c.demux, c.dispatch) {
		c.shutdown()
	}
}

// dispatch routes one received frame.
func (c *Client) dispatch(own, shared []byte) {
	var env wire.Envelope
	if c.dec.DecodeParts(own, shared, &env) != nil || len(shared) != 0 && env.Kind != wire.KindReply {
		// Malformed frame (truncated, corrupted, bad CRC, or in parts, which
		// only a reply is sent in: Call.Reply): drop, but count the drop so
		// codec trouble is visible.
		c.conn.Network().Counters().AddKey("rpc", "frame", "decode-error", c.conn.LocalAddr().Host, 1)
		return
	}
	tr := c.conn.Network().Tracer()
	host := c.conn.LocalAddr().Host
	switch env.Kind {
	case wire.KindReply:
		p := c.take(env.ID)
		if p != nil {
			p.env = env
			p.done.Set()
		} else {
			// Late reply to a call that already timed out: its slot is no
			// longer pending (the caller took it back), so the reply is
			// dropped — but it still appears in the trace, correlated with
			// the timed-out call by ID.
			if tr.Enabled() {
				tr.InstantCtx(envCtx(&env), "rpc", "dropped-reply", host, c.conn.Flow(), corrID(tr, c.conn, env.ID))
			}
			c.conn.Network().Counters().AddKey("rpc", "reply", "drop", host, 1)
		}
	case wire.KindNotify:
		if !c.notifications.TrySend(Notification{Method: env.Method, Body: env.Body, Ctx: envCtx(&env)}) {
			// Nobody is draining the queue, or the client has shut down: the
			// notification is lost here, and the loss is on the record.
			if tr.Enabled() {
				tr.InstantCtx(envCtx(&env), "rpc", "dropped-notify", host, c.conn.Flow(), "",
					trace.Arg{Key: "method", Val: env.Method})
			}
			c.conn.Network().Counters().AddKey("rpc", "notify", "drop", host, 1)
			return
		}
		if tr.Enabled() {
			tr.InstantCtx(envCtx(&env), "rpc", tr.Concat("notify:", env.Method), host, c.conn.Flow(), "")
		}
		c.conn.Network().Counters().AddKey("rpc", "notify", "recv", host, 1)
	}
}

func (c *Client) shutdown() {
	if c.closed {
		return
	}
	// A closed client registers no further call.
	c.closed = true
	// Every Close wakes a caller: wake them in call order, not map order. The
	// slot in the Client may hold a later call than the map does, and is the
	// only one there can be on a connection one process uses: no allocation.
	var one [1]*pendingCall
	waiting := one[:0]
	if c.first.id != 0 {
		waiting = append(waiting, &c.first)
	}
	for _, p := range c.overflow {
		waiting = append(waiting, p)
	}
	slices.SortFunc(waiting, func(a, b *pendingCall) int { return cmp.Compare(a.id, b.id) })
	for _, p := range waiting {
		p.id = 0
	}
	c.overflow = nil
	for _, p := range waiting {
		p.closed = true
		p.done.Set()
	}
	c.notifications.Close()
}

// Close tears down the connection. Pending calls fail with ErrClosed.
func (c *Client) Close() {
	c.conn.Close()
	c.shutdown()
}

// Call sends a request and waits up to timeout for the reply, decoding it
// into reply (which may be nil). Remote handler errors come back as
// RemoteError. The call joins the connection's base causal context; use
// CallCtx to parent it elsewhere.
func (c *Client) Call(method string, arg, reply any, timeout time.Duration) error {
	return c.CallCtx(trace.Ctx{}, method, arg, reply, timeout)
}

// CallCtx is Call under an explicit causal span context: on a traced
// network the call span becomes a child of ctx, and its context rides the
// envelope so the server handler span (and everything below it) lands in
// the same request tree. A zero ctx falls back to the connection's base
// context. An untraced network derives no context, and the envelope and
// its reply carry none.
func (c *Client) CallCtx(ctx trace.Ctx, method string, arg, reply any, timeout time.Duration) error {
	if c.closed {
		return ErrClosed
	}
	c.nextID++
	id := c.nextID
	slot := c.await(id)
	defer c.release(slot)

	if !ctx.Valid() {
		ctx = c.conn.Ctx()
	}
	tr := c.conn.Network().Tracer()
	var callCtx trace.Ctx
	if ctx.Valid() && tr.Enabled() { // the id's digits only for a context that is built
		callCtx = tr.Child(ctx, "call:", method, "#", tr.Itoa(int(id)))
	}
	host := c.conn.LocalAddr().Host
	start := tr.Now()
	startV := c.sim.Now()
	finish := func(outcome string) {
		c.hCall.Record(int64(c.sim.Now() - startV))
		if tr.Enabled() {
			tr.SpanCtx(callCtx, "rpc", tr.Concat("call:", method), host, c.conn.Flow(), corrID(tr, c.conn, id), start,
				trace.Arg{Key: "outcome", Val: outcome})
		}
		c.conn.Network().Counters().AddKey("rpc", "call", outcome, host, 1)
	}

	env := wire.Envelope{ID: id, Kind: wire.KindCall, Method: method, Req: callCtx.Req, Span: callCtx.Span}
	if err := c.out.send(&env, arg); err != nil {
		c.take(id)
		finish("closed")
		return err
	}
	if !slot.done.WaitTimeout(timeout) {
		c.take(id)
		finish("timeout")
		return ErrTimeout
	}
	if slot.closed {
		finish("closed")
		return ErrClosed
	}
	if slot.env.Error != "" {
		finish("error")
		return RemoteError(slot.env.Error)
	}
	finish("ok")
	if reply == nil {
		return nil
	}
	return decodeParts(slot.env.Body, slot.env.Shared, reply)
}

// sender is one end's send half: the frame encoder of its direction. Client
// and ServerConn each own one.
type sender struct {
	conn *transport.Conn
	// enc is the direction's encoder, which every sender on it shares:
	// the callers of one Client, or whoever replies to a ServerConn's calls
	// and pushes its notifications.
	enc wire.Encoder
}

// bind attaches the sender to conn and ships the handshake prologue as its
// own frame, at setup. Letting it ride on the first data frame (which
// wire.Encoder.Encode does for a sender that never called EncodePrologue)
// would be as deterministic — the run token makes the order of sends within
// a virtual instant a function of the seed — and would save a message each
// way, two of a one-shot connection's 4.6. It stays because message, byte
// and timer counts are pinned by every trace and counter table the
// repository compares across commits: removing the frame is a change of its
// own, with its own census (DESIGN.md, "Wire format"). Every prologue is
// the same bytes, so one frame serves every connection end, uncopied.
func (s *sender) bind(conn *transport.Conn) {
	s.conn = conn
	// A connection that is already closed fails the first real send too.
	_ = conn.SendShared(s.enc.EncodePrologue(), nil, trace.Ctx{})
}

// wireAppender and wireParser are how a message type opts into the typed
// body form: AppendWire on the value sent, ParseWire on the pointer received
// into (the marker byte is not theirs to write or read). A type implements
// both or neither; nothing is registered anywhere. A reply type may send with
// AppendWireShared instead of AppendWire (wireSharer).
type wireAppender interface {
	AppendWire(dst []byte) []byte
}

// wireSharer is a typed reply whose end many callers are sent alike:
// AppendWireShared appends the start, this caller's, and returns the end,
// or appends the whole body and returns nil. Call.Reply, and nothing else,
// sends a body in parts.
type wireSharer interface {
	AppendWireShared(dst []byte) ([]byte, *wire.Shared)
}

// wireParser reads a typed body received as head followed by shared (see
// wire.NewReader).
type wireParser interface {
	ParseWire(head, shared []byte) error
}

// marshalBody appends the body encoding of v to dst: the typed form behind
// wire.BodyMarker when v has one, JSON otherwise, by hand when v can. The
// choice depends on v's type alone.
func marshalBody(dst []byte, v any) ([]byte, error) {
	switch w := v.(type) {
	case nil:
		return dst, nil
	case wireAppender:
		return w.AppendWire(append(dst, wire.BodyMarker)), nil
	case interface{ AppendJSON(dst []byte) []byte }: // exactly json.Marshal's bytes
		return w.AppendJSON(dst), nil
	}
	js, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, js...), nil
}

// Decode unmarshals a received body into v, tolerating an empty body. The
// first byte says which form arrived, whatever the sender's type was: a
// typed receiver still decodes the JSON a foreign client sent it. JSON goes
// to v's ParseJSON when it has one, and to encoding/json when it has none or
// it declines: ParseJSON reads exactly what AppendJSON writes and nothing
// else, and leaves v as it was when it declines. What ParseWire and
// ParseJSON read is views of body (see internal/wire), so body must be a
// delivered frame's, or a copy its caller never writes again.
func Decode(body json.RawMessage, v any) error { return decodeParts(body, nil, v) }

// decodeParts is Decode for a body received as body followed by shared
// (wire.Envelope.Shared), as a reply sent in parts is; such a body is typed
// (Call.Reply).
func decodeParts(body, shared []byte, v any) error {
	if len(body) == 0 {
		return nil
	}
	if body[0] != wire.BodyMarker {
		if p, ok := v.(interface{ ParseJSON(src []byte) bool }); ok && p.ParseJSON(body) {
			return nil
		}
		return json.Unmarshal(body, v)
	}
	p, ok := v.(wireParser)
	if !ok {
		return fmt.Errorf("rpc: typed body received for %T, which has no ParseWire", v)
	}
	return p.ParseWire(body[1:], shared)
}

// send marshals arg as env's body and puts the envelope on the wire.
func (s *sender) send(env *wire.Envelope, arg any) error {
	net := s.conn.Network()
	buf := net.GetBuf()
	body, err := marshalBody(*buf, arg)
	if err != nil {
		net.PutBuf(buf)
		return fmt.Errorf("rpc: marshal %s: %w", env.Method, err)
	}
	*buf = body
	return s.sendFrame(env, buf, nil)
}

// noShared is the shared part of a frame sent whole: none.
var noShared = wire.NewShared(nil)

// sendFrame sends env with the contents of buf, lent by the connection's
// Network, as its body, followed by sh's bytes if sh is not nil, and
// returns buf. The frame's head is written in a second lent buffer. The
// transport is handed one new slice per frame and nothing else: the frame's
// own part (wire.Encoder.EncodeShared), beside sh's bytes, which every frame
// that ends in them shares uncopied.
func (s *sender) sendFrame(env *wire.Envelope, buf *[]byte, sh *wire.Shared) error {
	net := s.conn.Network()
	if sh == nil {
		sh = &noShared
	}
	env.Body = *buf
	head := net.GetBuf()
	own := s.enc.EncodeShared(head, env, sh)
	net.PutBuf(head)
	net.PutBuf(buf)
	if s.conn.SendShared(own, sh.Part(), envCtx(env)) != nil {
		return ErrClosed
	}
	return nil
}

// ServerConn is the server's view of one accepted connection. Handlers may
// use it to push notifications back to the client (e.g. GRAM state
// callbacks) and to close the connection.
type ServerConn struct {
	sim  *vtime.Sim
	srv  *Server
	conn *transport.Conn
	out  sender
	dec  wire.Decoder
	// hServe receives every call's virtual handler time. Nil without a
	// registry.
	hServe *metrics.Histogram
	// task reads the connection's frames (see connTask).
	task vtime.Task

	// Meta carries the preamble's result, e.g. the authenticated identity
	// established by a GSI handshake.
	Meta any
}

// RemoteAddr returns the client's address.
func (sc *ServerConn) RemoteAddr() transport.Addr { return sc.conn.RemoteAddr() }

// NotifyCtx pushes a one-way message to the client carrying the given
// causal context (e.g. an asynchronous job-state callback parented to the
// submit that registered it); a zero ctx falls back to the connection's
// base context. On an untraced network the message carries none.
func (sc *ServerConn) NotifyCtx(ctx trace.Ctx, method string, arg any) error {
	tr := sc.conn.Network().Tracer()
	switch {
	case !tr.Enabled():
		ctx = trace.Ctx{}
	case !ctx.Valid():
		ctx = sc.conn.Ctx()
	}
	env := wire.Envelope{Kind: wire.KindNotify, Method: method, Req: ctx.Req, Span: ctx.Span}
	if err := sc.out.send(&env, arg); err != nil {
		return err
	}
	host := sc.conn.LocalAddr().Host
	if tr.Enabled() {
		tr.InstantCtx(ctx, "rpc", tr.Concat("notify:", method), host, sc.conn.Flow(), "")
	}
	sc.conn.Network().Counters().AddKey("rpc", "notify", "send", host, 1)
	return nil
}

// Close closes the connection.
func (sc *ServerConn) Close() { sc.conn.Close() }

// Handler answers a connection's inbound calls without ever blocking:
// ServeCall runs in the connection's task step, where a kernel call that
// would block panics ("would block outside a simulated process"). It
// answers through the Call — before it returns, or by keeping the Call and
// replying when whatever the answer waits for has happened: a barrier's
// release, a timer, or the end of a process the handler spawned for a call
// that must wait in mid-function (GRAM's submit). body is valid after
// ServeCall returns.
type Handler interface {
	ServeCall(call *Call, method string, body json.RawMessage)
}

// Call is one inbound call between its arrival and its reply.
type Call struct {
	// Ctx is the call's causal span context: the caller's, extended with a
	// "serve" segment. Handlers parent their own spans under it.
	Ctx trace.Ctx

	sc      *ServerConn
	id      uint64 // with the connection's flow, the correlation id the caller's span carries
	method  string
	start   time.Duration // handler entry: where the serve span and rpc.serve.latency start
	replied bool
}

// Reply answers the call: with result, or — err non-nil — with the
// RemoteError the caller's Call returns. Anyone may send it, at any later
// virtual time; the serve span and latency end here. If the client has gone
// meanwhile the reply goes nowhere and nothing fails. A call has one reply:
// a second is a bug in the handler, and panics.
func (c *Call) Reply(result any, err error) {
	if c.replied {
		panic("rpc: second Reply to one " + c.method + " call")
	}
	c.replied = true
	sc := c.sc
	conn := sc.conn
	sc.hServe.Record(int64(sc.sim.Now() - c.start))
	reply := wire.Envelope{ID: c.id, Kind: wire.KindReply, Req: c.Ctx.Req, Span: c.Ctx.Span}
	outcome := "ok"
	buf := conn.Network().GetBuf()
	var sh *wire.Shared
	if err != nil {
		reply.Error = err.Error()
		outcome = "error"
	} else if w, ok := result.(wireSharer); ok {
		*buf, sh = w.AppendWireShared(append(*buf, wire.BodyMarker))
	} else if body, merr := marshalBody(*buf, result); merr != nil {
		reply.Error = "rpc: marshal reply: " + merr.Error()
		outcome = "error"
	} else {
		*buf = body
	}
	host := conn.LocalAddr().Host
	// The serve span covers handler execution and shares the call's
	// correlation ID, so client and server sides of one RPC line up in the
	// trace.
	if tr := conn.Network().Tracer(); tr.Enabled() {
		tr.SpanCtx(c.Ctx, "rpc", tr.Concat("serve:", c.method), host, conn.Flow(), corrID(tr, conn, c.id), c.start,
			trace.Arg{Key: "outcome", Val: outcome})
	}
	conn.Network().Counters().AddKey("rpc", "serve", outcome, host, 1)
	// The one error is ErrClosed: the client has gone, and is owed nothing.
	_ = sc.out.sendFrame(&reply, buf, sh)
}

// Conn returns the connection the call came in on: where the handler finds
// the preamble's Meta, and pushes notifications that outlive the call.
func (c *Call) Conn() *ServerConn { return c.sc }

// Preamble runs on each new server connection before any envelope is
// processed (e.g. the server side of a GSI handshake), in a process of the
// connection's own: it may block. Returning an error rejects the
// connection; the returned value is stored in ServerConn.Meta.
type Preamble func(conn *transport.Conn) (any, error)

// Server accepts connections on a listener and dispatches their envelopes
// to a Handler.
type Server struct {
	sim      *vtime.Sim
	listener *transport.Listener
	handler  Handler
	preamble Preamble
	// accept starts serving every connection that has arrived (see
	// acceptor).
	accept vtime.Task
}

// Serve starts accepting on l and returns immediately. Every connection is
// served by a task; one with a preamble (optional) is admitted by a process
// first.
func Serve(sim *vtime.Sim, l *transport.Listener, handler Handler, preamble Preamble) *Server {
	s := &Server{sim: sim, listener: l, handler: handler, preamble: preamble}
	s.accept.Init(sim, (*acceptor)(s))
	s.accept.Ready()
	return s
}

// Addr returns the served address.
func (s *Server) Addr() transport.Addr { return s.listener.Addr() }

// Close stops accepting new connections.
func (s *Server) Close() { s.listener.Close() }

// acceptor is the Server's listener side as a task body.
type acceptor Server

func (a *acceptor) RunTask() {
	s := (*Server)(a)
	for {
		conn, err := s.listener.TryAccept()
		switch err {
		case nil:
			sc := &ServerConn{sim: s.sim, srv: s, conn: conn}
			sc.task.Init(s.sim, (*connTask)(sc))
			if s.preamble == nil {
				sc.task.Ready()
			} else {
				s.sim.GoDaemon("rpc-preamble", sc.admit)
			}
		case transport.ErrWouldBlock:
			s.listener.ReadyOnArrival(&s.accept)
			return
		default:
			return // the listener is closed
		}
	}
}

// admit is the process a connection with a preamble starts as. It runs the
// preamble and, once that has accepted the connection, the connection's
// first task step — frames that arrived meanwhile are handled there — and
// exits; a rejected connection is closed, and no step of it ever runs.
func (sc *ServerConn) admit() {
	meta, err := sc.srv.preamble(sc.conn)
	if err != nil {
		sc.conn.Close()
		return
	}
	sc.Meta = meta
	(*connTask)(sc).RunTask()
}

// open starts the envelope exchange: this direction's prologue goes out.
func (sc *ServerConn) open() {
	sc.out.bind(sc.conn)
	sc.hServe = sc.conn.Network().Hists().H("rpc.serve.latency")
}

// connTask is a connection as a task body. Its first step opens the
// exchange — where a process serving the connection would have, not in the
// accept step that readied it.
type connTask ServerConn

func (t *connTask) RunTask() {
	sc := (*ServerConn)(t)
	if sc.out.conn == nil {
		sc.open()
	}
	drain(sc.conn, &sc.task, sc.handle)
}

// handle dispatches one received frame. A call is sent whole: one in parts
// is malformed. A server is sent nothing but calls, so a frame of another
// kind is ignored.
func (sc *ServerConn) handle(own, shared []byte) {
	var env wire.Envelope
	if len(shared) != 0 || sc.dec.Decode(own, &env) != nil {
		sc.conn.Network().Counters().AddKey("rpc", "frame", "decode-error", sc.conn.LocalAddr().Host, 1)
		return
	}
	switch env.Kind {
	case wire.KindCall:
		// The envelope's span context parents the serve span under the
		// caller's call span, in strings from the tracer's table: a handler
		// may keep its Call (the barrier keeps each check-in until the
		// commit), which must not keep the frame alive through a view of it.
		// An untraced network's calls carry none, and derive none.
		tr := sc.conn.Network().Tracer()
		var ctx trace.Ctx
		if env.Req != "" && tr.Enabled() {
			ctx = trace.Ctx{Req: tr.Concat(env.Req), Span: tr.Child(envCtx(&env), "serve").Span}
		} else {
			ctx = tr.Child(sc.conn.Ctx(), "serve")
		}
		call := &Call{Ctx: ctx, sc: sc, id: env.ID, method: env.Method, start: sc.sim.Now()}
		sc.srv.handler.ServeCall(call, env.Method, env.Body)
	}
}

// HandlerFuncs adapts plain functions that answer at once to the Handler
// interface: Call runs in the connection's task step, and what it returns is
// the reply. A nil Call rejects every call with an error.
type HandlerFuncs struct {
	Call func(sc *ServerConn, method string, body json.RawMessage) (any, error)
}

// ServeCall implements Handler.
func (h HandlerFuncs) ServeCall(call *Call, method string, body json.RawMessage) {
	if h.Call == nil {
		call.Reply(nil, fmt.Errorf("rpc: no handler for %s", method))
		return
	}
	call.Reply(h.Call(call.sc, method, body))
}
