// Package rpc provides a small request/reply and notification protocol
// over simulated transport connections.
//
// A connection carries envelopes in the compact binary frame format of
// internal/wire. Calls expect a matching reply; notifications are one-way
// and may flow in either direction, which is how GRAM delivers asynchronous
// job-state callbacks to a connected client.
//
// Bodies are JSON unless the message type opts into the typed binary form
// of internal/wire by implementing AppendWire (on the value sent) and
// ParseWire (on the pointer received into); see marshalBody and Decode.
//
// Nothing here owns a process unless something blocks. The receive side of
// a Client and a Server's listener each belong to a kernel task embedded in
// their owner (vtime.Task): readied by an arrival exactly where a process
// parked in Recv or Accept would have been woken, its step handles every
// frame (or connection) that has arrived and registers for the next. What a
// server's connections get depends on the shape of its handler. A Handler
// (Serve) may block in the middle of a call — a handshake, a sleep, a call
// of its own — so each of its connections is a process ("rpc-conn:…"),
// which also serialises that connection's calls: the next frame is read
// when the reply has been sent. A TaskHandler (ServeTasks) never blocks: it
// is handed each call as a *Call, a value it answers now or keeps and
// answers later, from any process or task, with Call.Reply; its connections
// are served by a task each, which reads the next frame without waiting for
// the previous call's reply. Decoding, the serve span, the latency
// histogram and the reply frame are one code path (ServerConn.handle,
// Call.Reply) under both.
package rpc

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
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

// Client issues calls and notifications over a connection and surfaces
// remote-initiated notifications. Create with NewClient; the demux task
// owns the receive side of the connection.
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

	mu     sync.Mutex
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
// the pending set under Client.mu (take), so exactly one of them writes it,
// and then sets done; the caller reads it once done is set. A caller whose
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

// await registers a reply slot for call id. Caller holds c.mu.
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
// client shut down. Caller holds c.mu.
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
		c.mu.Lock()
		*p = pendingCall{}
		c.firstTaken = false
		c.mu.Unlock()
	}
}

// Notifications returns the stream of remote-initiated notifications. The
// channel closes when the connection closes.
func (c *Client) Notifications() *vtime.Chan[Notification] { return &c.notifications }

// Conn returns the underlying connection's remote address.
func (c *Client) RemoteAddr() transport.Addr { return c.conn.RemoteAddr() }

// corrID builds the correlation identifier shared by the client call span,
// the server handler span, and any dropped-reply event for one call: the
// connection-pair flow plus the per-connection call id.
func corrID(conn *transport.Conn, id uint64) string {
	return conn.Flow() + "#" + strconv.FormatUint(id, 10)
}

// drain hands frame every message that has arrived on conn and then
// registers waiter for the next arrival: the step of a task that owns a
// connection's receive side. It reports true once the connection is closed
// and drained, when there is nothing left to wait for.
func drain(conn *transport.Conn, waiter *vtime.Task, frame func(raw []byte)) (closed bool) {
	for {
		raw, err := conn.TryRecv()
		switch err {
		case nil:
			frame(raw)
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
func (c *Client) dispatch(raw []byte) {
	var env wire.Envelope
	if c.dec.Decode(raw, &env) != nil {
		// Malformed frame (truncated, corrupted, bad CRC): drop, but
		// count the drop so codec trouble is visible.
		c.conn.Network().Counters().AddKey("rpc", "frame", "decode-error", c.conn.LocalAddr().Host, 1)
		return
	}
	tr := c.conn.Network().Tracer()
	host := c.conn.LocalAddr().Host
	switch env.Kind {
	case wire.KindReply:
		c.mu.Lock()
		p := c.take(env.ID)
		c.mu.Unlock()
		if p != nil {
			p.env = env
			p.done.Set()
		} else {
			// Late reply to a call that already timed out: its slot is no
			// longer pending (the caller took it back), so the reply is
			// dropped — but it still appears in the trace, correlated with
			// the timed-out call by ID.
			if tr.Enabled() {
				tr.InstantCtx(envCtx(&env), "rpc", "dropped-reply", host, c.conn.Flow(), corrID(c.conn, env.ID))
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
			tr.InstantCtx(envCtx(&env), "rpc", "notify:"+env.Method, host, c.conn.Flow(), "")
		}
		c.conn.Network().Counters().AddKey("rpc", "notify", "recv", host, 1)
	}
}

func (c *Client) shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
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
	c.mu.Unlock()
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

// CallCtx is Call under an explicit causal span context: the call span
// becomes a child of ctx, and the context rides the envelope so the server
// handler span (and everything below it) lands in the same request tree.
// A zero ctx falls back to the connection's base context.
func (c *Client) CallCtx(ctx trace.Ctx, method string, arg, reply any, timeout time.Duration) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.nextID++
	id := c.nextID
	slot := c.await(id)
	c.mu.Unlock()
	defer c.release(slot)

	if !ctx.Valid() {
		ctx = c.conn.Ctx()
	}
	var callCtx trace.Ctx
	if ctx.Valid() {
		callCtx = ctx.Child("call:" + method + "#" + strconv.FormatUint(id, 10))
	}
	tr := c.conn.Network().Tracer()
	host := c.conn.LocalAddr().Host
	start := tr.Now()
	startV := c.sim.Now()
	finish := func(outcome string) {
		c.hCall.Record(int64(c.sim.Now() - startV))
		if tr.Enabled() {
			tr.SpanCtx(callCtx, "rpc", "call:"+method, host, c.conn.Flow(), corrID(c.conn, id), start,
				trace.Arg{Key: "outcome", Val: outcome})
		}
		c.conn.Network().Counters().AddKey("rpc", "call", outcome, host, 1)
	}

	env := wire.Envelope{ID: id, Kind: wire.KindCall, Method: method, Req: callCtx.Req, Span: callCtx.Span}
	if err := c.out.send(&env, arg); err != nil {
		c.mu.Lock()
		c.take(id)
		c.mu.Unlock()
		finish("closed")
		return err
	}
	if !slot.done.WaitTimeout(timeout) {
		c.mu.Lock()
		c.take(id)
		c.mu.Unlock()
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
	return Decode(slot.env.Body, reply)
}

// Notify sends a one-way message under the connection's base context.
func (c *Client) Notify(method string, arg any) error {
	return c.NotifyCtx(trace.Ctx{}, method, arg)
}

// NotifyCtx sends a one-way message carrying the given causal context.
func (c *Client) NotifyCtx(ctx trace.Ctx, method string, arg any) error {
	if !ctx.Valid() {
		ctx = c.conn.Ctx()
	}
	return c.out.send(&wire.Envelope{Kind: wire.KindNotify, Method: method, Req: ctx.Req, Span: ctx.Span}, arg)
}

// sender is one end's send half: the frame encoder of its direction. Client
// and ServerConn each own one.
type sender struct {
	conn *transport.Conn
	// mu guards enc: concurrent senders (callers of one Client; a
	// ServerConn's serve loop and its handlers' notification daemons) share
	// the direction's encoder.
	mu  sync.Mutex
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
// own, with its own census (DESIGN.md, "Wire format").
func (s *sender) bind(conn *transport.Conn) {
	s.conn = conn
	buf := wire.GetBuf()
	*buf = s.enc.EncodePrologue((*buf)[:0])
	// A connection that is already closed fails the first real send too.
	_ = conn.SendCtx(*buf, trace.Ctx{})
	wire.PutBuf(buf)
}

// wireAppender and wireParser are how a message type opts into the typed
// body form: AppendWire on the value sent, ParseWire on the pointer
// received into (the marker byte is not theirs to write or read). A type
// implements both or neither; nothing is registered anywhere.
type wireAppender interface {
	AppendWire(dst []byte) []byte
}

type wireParser interface {
	ParseWire(src []byte) error
}

// marshalBody appends the body encoding of v to dst: the typed form behind
// wire.BodyMarker when v has one, JSON otherwise. The choice depends on v's
// type alone.
func marshalBody(dst []byte, v any) ([]byte, error) {
	if v == nil {
		return dst, nil
	}
	if w, ok := v.(wireAppender); ok {
		return w.AppendWire(append(dst, wire.BodyMarker)), nil
	}
	js, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, js...), nil
}

// Decode unmarshals a received body into v, tolerating an empty body. The
// first byte says which form arrived, whatever the sender's type was: a
// typed receiver still decodes the JSON a foreign client sent it.
func Decode(body json.RawMessage, v any) error {
	if len(body) == 0 {
		return nil
	}
	if body[0] != wire.BodyMarker {
		return json.Unmarshal(body, v)
	}
	p, ok := v.(wireParser)
	if !ok {
		return fmt.Errorf("rpc: typed body received for %T, which has no ParseWire", v)
	}
	return p.ParseWire(body[1:])
}

// send marshals arg as env's body and puts the envelope on the wire.
func (s *sender) send(env *wire.Envelope, arg any) error {
	buf := wire.GetBuf()
	body, err := marshalBody(*buf, arg)
	if err != nil {
		wire.PutBuf(buf)
		return fmt.Errorf("rpc: marshal %s: %w", env.Method, err)
	}
	*buf = body
	return s.sendFrame(env, buf)
}

// sendFrame sends env with the contents of the pooled buffer buf as its
// body, and recycles buf. The frame is encoded behind the body in
// the same buffer and the transport copies what it sends, so the
// steady-state send path allocates nothing of its own.
func (s *sender) sendFrame(env *wire.Envelope, buf *[]byte) error {
	defer wire.PutBuf(buf)
	env.Body = *buf
	ctx := envCtx(env)
	s.mu.Lock()
	*buf = s.enc.Encode(*buf, env)
	err := s.conn.SendCtx((*buf)[len(env.Body):], ctx)
	s.mu.Unlock()
	if err != nil {
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
	// gone is set when a Handler's reply could not be sent: the client has
	// closed, and the connection's process stops reading.
	gone bool
	// task serves the connection when the handler is a TaskHandler.
	task vtime.Task

	// Meta carries the preamble's result, e.g. the authenticated identity
	// established by a GSI handshake.
	Meta any
	// Ctx is the causal span context of the call a Handler is currently
	// handling (the caller's context extended with a "serve" segment). It is
	// set by the connection's process immediately before each HandleCall,
	// which runs synchronously there, so handlers may read it to parent
	// their own spans. Outside a call it holds the connection's base context
	// — and so it does throughout on a connection a TaskHandler serves,
	// whose calls overlap: there the context travels in the Call.
	Ctx trace.Ctx
}

// RemoteAddr returns the client's address.
func (sc *ServerConn) RemoteAddr() transport.Addr { return sc.conn.RemoteAddr() }

// Notify pushes a one-way message to the client under the connection's
// base causal context.
func (sc *ServerConn) Notify(method string, arg any) error {
	return sc.NotifyCtx(trace.Ctx{}, method, arg)
}

// NotifyCtx pushes a one-way message carrying the given causal context
// (e.g. an asynchronous job-state callback parented to the submit that
// registered it).
func (sc *ServerConn) NotifyCtx(ctx trace.Ctx, method string, arg any) error {
	if !ctx.Valid() {
		ctx = sc.conn.Ctx()
	}
	env := wire.Envelope{Kind: wire.KindNotify, Method: method, Req: ctx.Req, Span: ctx.Span}
	if err := sc.out.send(&env, arg); err != nil {
		return err
	}
	host := sc.conn.LocalAddr().Host
	if tr := sc.conn.Network().Tracer(); tr.Enabled() {
		tr.InstantCtx(ctx, "rpc", "notify:"+method, host, sc.conn.Flow(), "")
	}
	sc.conn.Network().Counters().AddKey("rpc", "notify", "send", host, 1)
	return nil
}

// Close closes the connection.
func (sc *ServerConn) Close() { sc.conn.Close() }

// Handler processes inbound calls and notifications and may block while it
// does. HandleCall runs synchronously in the connection's process: its
// execution time (e.g. a simulated initgroups lookup) delays only that
// connection, and the connection's next frame waits for it.
type Handler interface {
	HandleCall(sc *ServerConn, method string, body json.RawMessage) (any, error)
	HandleNotify(sc *ServerConn, method string, body json.RawMessage)
}

// TaskHandler processes inbound calls and notifications without ever
// blocking: both methods run as part of a kernel task step, where a kernel
// call that would block panics ("would block outside a simulated process").
// ServeCall answers through the Call — before it returns, or by keeping the
// Call and replying when whatever the answer waits for (a barrier's release,
// a timer) has happened. body is valid after ServeCall returns.
type TaskHandler interface {
	ServeCall(call *Call, method string, body json.RawMessage)
	HandleNotify(sc *ServerConn, method string, body json.RawMessage)
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
func (c *Call) Reply(result any, err error) { c.reply(result, err) }

// reply is Reply, reporting whether the client is still there to send to.
func (c *Call) reply(result any, err error) bool {
	if c.replied {
		panic("rpc: second Reply to one " + c.method + " call")
	}
	c.replied = true
	sc := c.sc
	conn := sc.conn
	sc.hServe.Record(int64(sc.sim.Now() - c.start))
	reply := wire.Envelope{ID: c.id, Kind: wire.KindReply, Req: c.Ctx.Req, Span: c.Ctx.Span}
	outcome := "ok"
	buf := wire.GetBuf()
	if err != nil {
		reply.Error = err.Error()
		outcome = "error"
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
		tr.SpanCtx(c.Ctx, "rpc", "serve:"+c.method, host, conn.Flow(), corrID(conn, c.id), c.start,
			trace.Arg{Key: "outcome", Val: outcome})
	}
	conn.Network().Counters().AddKey("rpc", "serve", outcome, host, 1)
	return sc.out.sendFrame(&reply, buf) != ErrClosed
}

// Preamble runs on each new server connection before any envelope is
// processed (e.g. the server side of a GSI handshake). Returning an error
// rejects the connection; the returned value is stored in ServerConn.Meta.
// It blocks, so only a Handler's connections — processes — can have one.
type Preamble func(conn *transport.Conn) (any, error)

// Server accepts connections on a listener and dispatches envelopes to a
// Handler or a TaskHandler.
type Server struct {
	sim      *vtime.Sim
	listener *transport.Listener
	handler  Handler     // nil when tasks is set
	tasks    TaskHandler // nil when handler is set
	preamble Preamble
	// accept starts whatever serves a connection — a process or a task — for
	// every connection that has arrived (see acceptor).
	accept vtime.Task
}

// Serve starts accepting on l, running preamble (optional) then the
// envelope loop for each connection in a process of its own. It returns
// immediately.
func Serve(sim *vtime.Sim, l *transport.Listener, handler Handler, preamble Preamble) *Server {
	return (&Server{sim: sim, listener: l, handler: handler, preamble: preamble}).start()
}

// ServeTasks starts accepting on l for a handler that never blocks: no
// connection gets a process. There is no preamble to pass — a preamble
// blocks — so a service that authenticates its connections first is a
// Handler's.
func ServeTasks(sim *vtime.Sim, l *transport.Listener, handler TaskHandler) *Server {
	return (&Server{sim: sim, listener: l, tasks: handler}).start()
}

func (s *Server) start() *Server {
	s.accept.Init(s.sim, (*acceptor)(s))
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
			sc := &ServerConn{sim: s.sim, srv: s, conn: conn, Ctx: conn.Ctx()}
			if s.tasks != nil {
				sc.task.Init(s.sim, (*connTask)(sc))
				sc.task.Ready()
			} else {
				s.sim.GoDaemon("rpc-conn:"+conn.RemoteAddr().String(), sc.serve)
			}
		case transport.ErrWouldBlock:
			s.listener.ReadyOnArrival(&s.accept)
			return
		default:
			return // the listener is closed
		}
	}
}

// open starts the envelope exchange: this direction's prologue goes out.
func (sc *ServerConn) open() {
	sc.out.bind(sc.conn)
	sc.hServe = sc.conn.Network().Hists().H("rpc.serve.latency")
}

// serve is a Handler's connection: a process that runs the preamble, then
// reads a frame, handles it to the reply, and reads the next.
func (sc *ServerConn) serve() {
	if preamble := sc.srv.preamble; preamble != nil {
		meta, err := preamble(sc.conn)
		if err != nil {
			sc.conn.Close()
			return
		}
		sc.Meta = meta
	}
	sc.open()
	for !sc.gone {
		raw, err := sc.conn.Recv()
		if err != nil {
			return
		}
		sc.handle(raw)
	}
}

// connTask is a TaskHandler's connection as a task body. Its first step
// opens the exchange — where the connection's process would have, not in
// the accept step that readied it.
type connTask ServerConn

func (t *connTask) RunTask() {
	sc := (*ServerConn)(t)
	if sc.out.conn == nil {
		sc.open()
	}
	drain(sc.conn, &sc.task, sc.handle)
}

// handle dispatches one received frame.
func (sc *ServerConn) handle(raw []byte) {
	var env wire.Envelope
	if sc.dec.Decode(raw, &env) != nil {
		sc.conn.Network().Counters().AddKey("rpc", "frame", "decode-error", sc.conn.LocalAddr().Host, 1)
		return
	}
	s := sc.srv
	switch env.Kind {
	case wire.KindCall:
		// The envelope's span context parents the serve span under the
		// caller's call span.
		ctx := envCtx(&env)
		if !ctx.Valid() {
			ctx = sc.conn.Ctx()
		}
		call := Call{Ctx: ctx.Child("serve"), sc: sc, id: env.ID, method: env.Method, start: sc.sim.Now()}
		if s.tasks != nil {
			kept := call // the handler may keep it; a Handler's call stays on the stack
			s.tasks.ServeCall(&kept, env.Method, env.Body)
			return
		}
		sc.Ctx = call.Ctx
		result, err := s.handler.HandleCall(sc, env.Method, env.Body)
		sc.Ctx = sc.conn.Ctx()
		sc.gone = !call.reply(result, err)
	case wire.KindNotify:
		if s.tasks != nil {
			s.tasks.HandleNotify(sc, env.Method, env.Body)
		} else {
			s.handler.HandleNotify(sc, env.Method, env.Body)
		}
	}
}

// HandlerFuncs adapts plain functions to the Handler interface. Nil fields
// reject calls with an error / ignore notifications.
type HandlerFuncs struct {
	Call       func(sc *ServerConn, method string, body json.RawMessage) (any, error)
	NotifyFunc func(sc *ServerConn, method string, body json.RawMessage)
}

// HandleCall implements Handler.
func (h HandlerFuncs) HandleCall(sc *ServerConn, method string, body json.RawMessage) (any, error) {
	if h.Call == nil {
		return nil, fmt.Errorf("rpc: no handler for %s", method)
	}
	return h.Call(sc, method, body)
}

// HandleNotify implements Handler.
func (h HandlerFuncs) HandleNotify(sc *ServerConn, method string, body json.RawMessage) {
	if h.NotifyFunc != nil {
		h.NotifyFunc(sc, method, body)
	}
}
