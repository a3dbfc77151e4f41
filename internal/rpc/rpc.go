// Package rpc provides a small request/reply and notification protocol
// over simulated transport connections.
//
// A connection carries envelopes in either the compact binary frame format
// of internal/wire (the default) or the legacy JSON format; receivers
// auto-detect per frame, so mixed-codec peers interoperate. Calls expect a
// matching reply; notifications are one-way and may flow in either
// direction, which is how GRAM delivers asynchronous job-state callbacks
// to a connected client.
//
// Bodies are JSON unless the message type opts into the typed binary form
// of internal/wire by implementing AppendWire (on the value sent) and
// ParseWire (on the pointer received into); see marshalBody and Decode.
package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
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

// Codec selects the envelope encoding for one side's sends. The receive
// side always auto-detects by first byte, so the two ends of a connection
// may use different codecs.
type Codec int

const (
	// Binary is the compact CRC-framed format of internal/wire (default).
	Binary Codec = iota
	// JSON is the legacy text envelope, kept for the codec comparison and
	// for wire-level debuggability.
	JSON
)

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
// remote-initiated notifications. Create with NewClient; a demux daemon
// owns the receive side of the connection.
type Client struct {
	sim  *vtime.Sim
	conn *transport.Conn
	out  sender
	// replyName names every call's reply channel; only the deadlock
	// reporter reads it, beside the name of the process that is blocked.
	replyName string

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*vtime.Chan[wire.Envelope]
	closed  bool
	dec     wire.Decoder

	// hCall receives every call's virtual round-trip latency (all
	// outcomes, so timeouts shape the tail). Nil without a registry.
	hCall *metrics.Histogram

	notifications *vtime.Chan[Notification]
}

// NewClient wraps conn with the default binary codec. The caller must not
// use conn directly afterwards.
func NewClient(sim *vtime.Sim, conn *transport.Conn) *Client {
	return NewClientCodec(sim, conn, Binary)
}

// NewClientCodec is NewClient with an explicit send codec.
func NewClientCodec(sim *vtime.Sim, conn *transport.Conn, codec Codec) *Client {
	local := conn.LocalAddr().String()
	c := &Client{
		sim:           sim,
		conn:          conn,
		replyName:     "rpc-reply:" + local,
		pending:       make(map[uint64]*vtime.Chan[wire.Envelope]),
		hCall:         conn.Network().Hists().H("rpc.call.latency"),
		notifications: vtime.NewChan[Notification](sim, "rpc-notify:"+local, 256),
	}
	c.out.bind(conn, codec)
	sim.GoDaemon("rpc-demux:"+local, c.demux)
	return c
}

// Notifications returns the stream of remote-initiated notifications. The
// channel closes when the connection closes.
func (c *Client) Notifications() *vtime.Chan[Notification] { return c.notifications }

// Conn returns the underlying connection's remote address.
func (c *Client) RemoteAddr() transport.Addr { return c.conn.RemoteAddr() }

// corrID builds the correlation identifier shared by the client call span,
// the server handler span, and any dropped-reply event for one call: the
// connection-pair flow plus the per-connection call id.
func corrID(conn *transport.Conn, id uint64) string {
	return conn.Flow() + "#" + strconv.FormatUint(id, 10)
}

func (c *Client) demux() {
	for {
		raw, err := c.conn.Recv()
		if err != nil {
			c.shutdown()
			return
		}
		var env wire.Envelope
		if c.dec.Decode(raw, &env) != nil {
			// Malformed frame (truncated, corrupted, bad CRC): drop, but
			// count the drop so codec trouble is visible.
			c.conn.Network().Counters().AddKey("rpc", "frame", "decode-error", c.conn.LocalAddr().Host, 1)
			continue
		}
		tr := c.conn.Network().Tracer()
		host := c.conn.LocalAddr().Host
		switch env.Kind {
		case wire.KindReply:
			c.mu.Lock()
			ch := c.pending[env.ID]
			delete(c.pending, env.ID)
			c.mu.Unlock()
			if ch != nil {
				ch.TrySend(env)
			} else {
				// Late reply to a call that already timed out: the pending
				// entry is gone (Call removed it), so the reply is dropped —
				// but it still appears in the trace, correlated with the
				// timed-out call by ID.
				if tr.Enabled() {
					tr.InstantCtx(envCtx(&env), "rpc", "dropped-reply", host, c.conn.Flow(), corrID(c.conn, env.ID))
				}
				c.conn.Network().Counters().AddKey("rpc", "reply", "drop", host, 1)
			}
		case wire.KindNotify:
			c.notifications.TrySend(Notification{Method: env.Method, Body: env.Body, Ctx: envCtx(&env)})
			if tr.Enabled() {
				tr.InstantCtx(envCtx(&env), "rpc", "notify:"+env.Method, host, c.conn.Flow(), "")
			}
			c.conn.Network().Counters().AddKey("rpc", "notify", "recv", host, 1)
		}
	}
}

func (c *Client) shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pending := c.pending
	c.pending = make(map[uint64]*vtime.Chan[wire.Envelope])
	c.mu.Unlock()
	for _, ch := range pending {
		ch.Close()
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
	ch := vtime.NewChan[wire.Envelope](c.sim, c.replyName, 1)
	c.pending[id] = ch
	c.mu.Unlock()

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
		delete(c.pending, id)
		c.mu.Unlock()
		finish("closed")
		return err
	}
	env, res := ch.RecvTimeout(timeout)
	switch res {
	case vtime.RecvClosed:
		finish("closed")
		return ErrClosed
	case vtime.RecvTimedOut:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		finish("timeout")
		return ErrTimeout
	}
	if env.Error != "" {
		finish("error")
		return RemoteError(env.Error)
	}
	finish("ok")
	if reply == nil {
		return nil
	}
	return Decode(env.Body, reply)
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

// sender is one end's send half: the codec it speaks and the frame encoder
// of its direction. Client and ServerConn each own one.
type sender struct {
	conn  *transport.Conn
	codec Codec
	// mu guards enc: concurrent senders (callers of one Client; a
	// ServerConn's serve loop and its handlers' notification daemons) share
	// the direction's encoder.
	mu  sync.Mutex
	enc wire.Encoder
}

// bind attaches the sender to conn and, for the binary codec, ships the
// handshake prologue as its own frame. Setup is a deterministic point;
// piggybacking the prologue on the first data frame instead would let
// goroutine scheduling within one virtual instant decide which message
// grows by its bytes, making per-message wire sizes nondeterministic.
func (s *sender) bind(conn *transport.Conn, codec Codec) {
	s.conn, s.codec = conn, codec
	if codec != Binary {
		return
	}
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
// wire.BodyMarker when v has one and the envelope will be binary, JSON
// otherwise — a JSON envelope embeds its body as a JSON value, so a
// JSON-codec connection stays JSON all the way down. The choice depends on
// v's type and the sender's codec alone.
func marshalBody(dst []byte, codec Codec, v any) ([]byte, error) {
	if v == nil {
		return dst, nil
	}
	if w, ok := v.(wireAppender); ok && codec == Binary {
		return w.AppendWire(append(dst, wire.BodyMarker)), nil
	}
	js, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, js...), nil
}

// Decode unmarshals a received body into v, tolerating an empty body. The
// first byte says which form arrived, whatever the sender's type or codec
// was: a typed receiver still decodes the JSON a foreign client sent it.
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
	body, err := marshalBody(*buf, s.codec, arg)
	if err != nil {
		wire.PutBuf(buf)
		return fmt.Errorf("rpc: marshal %s: %w", env.Method, err)
	}
	*buf = body
	return s.sendFrame(env, buf)
}

// sendFrame sends env with the contents of the pooled buffer buf as its
// body, and recycles buf. The binary frame is encoded behind the body in
// the same buffer and the transport copies what it sends, so the
// steady-state send path allocates nothing of its own.
func (s *sender) sendFrame(env *wire.Envelope, buf *[]byte) error {
	defer wire.PutBuf(buf)
	env.Body = *buf
	ctx := envCtx(env)
	if s.codec == JSON {
		raw, err := wire.EncodeJSON(env)
		if err != nil {
			return fmt.Errorf("rpc: marshal envelope: %w", err)
		}
		if s.conn.SendCtx(raw, ctx) != nil {
			return ErrClosed
		}
		return nil
	}
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
	conn *transport.Conn
	out  sender
	// Meta carries the preamble's result, e.g. the authenticated identity
	// established by a GSI handshake.
	Meta any
	// Ctx is the causal span context of the call currently being handled
	// (the caller's context extended with a "serve" segment). It is set by
	// the per-connection loop immediately before each HandleCall, which
	// runs synchronously in that loop, so handlers may read it to parent
	// their own spans. Outside a call it holds the connection's base
	// context.
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

// Handler processes inbound calls and notifications. HandleCall runs
// synchronously in the per-connection loop: its execution time (e.g. a
// simulated initgroups lookup) delays only that connection.
type Handler interface {
	HandleCall(sc *ServerConn, method string, body json.RawMessage) (any, error)
	HandleNotify(sc *ServerConn, method string, body json.RawMessage)
}

// Preamble runs on each new server connection before any envelope is
// processed (e.g. the server side of a GSI handshake). Returning an error
// rejects the connection; the returned value is stored in ServerConn.Meta.
type Preamble func(conn *transport.Conn) (any, error)

// Server accepts connections on a listener and dispatches envelopes to a
// Handler.
type Server struct {
	sim      *vtime.Sim
	listener *transport.Listener
	handler  Handler
	preamble Preamble
	codec    Codec
}

// Serve starts accepting on l, running preamble (optional) then the
// envelope loop for each connection, replying in the default binary codec.
// It returns immediately; daemons do the work.
func Serve(sim *vtime.Sim, l *transport.Listener, handler Handler, preamble Preamble) *Server {
	return ServeCodec(sim, l, handler, preamble, Binary)
}

// ServeCodec is Serve with an explicit send codec for replies and
// notifications. Inbound frames are auto-detected regardless.
func ServeCodec(sim *vtime.Sim, l *transport.Listener, handler Handler, preamble Preamble, codec Codec) *Server {
	srv := &Server{sim: sim, listener: l, handler: handler, preamble: preamble, codec: codec}
	sim.GoDaemon("rpc-accept:"+l.Addr().String(), srv.acceptLoop)
	return srv
}

// Addr returns the served address.
func (s *Server) Addr() transport.Addr { return s.listener.Addr() }

// Close stops accepting new connections.
func (s *Server) Close() { s.listener.Close() }

func (s *Server) acceptLoop() {
	for {
		conn, ok := s.listener.Accept()
		if !ok {
			return
		}
		s.sim.GoDaemon("rpc-conn:"+conn.RemoteAddr().String(), func() {
			s.serveConn(conn)
		})
	}
}

func (s *Server) serveConn(conn *transport.Conn) {
	var meta any
	if s.preamble != nil {
		m, err := s.preamble(conn)
		if err != nil {
			conn.Close()
			return
		}
		meta = m
	}
	sc := &ServerConn{sim: s.sim, conn: conn, Meta: meta, Ctx: conn.Ctx()}
	sc.out.bind(conn, s.codec)
	tr := conn.Network().Tracer()
	host := conn.LocalAddr().Host
	hServe := conn.Network().Hists().H("rpc.serve.latency")
	var dec wire.Decoder
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		var env wire.Envelope
		if dec.Decode(raw, &env) != nil {
			conn.Network().Counters().AddKey("rpc", "frame", "decode-error", host, 1)
			continue
		}
		switch env.Kind {
		case wire.KindCall:
			// The serve span covers handler execution and shares the call's
			// correlation ID, so client and server sides of one RPC line up
			// in the trace. The envelope's span context parents the serve
			// span under the caller's call span.
			serveCtx := envCtx(&env)
			if !serveCtx.Valid() {
				serveCtx = conn.Ctx()
			}
			serveCtx = serveCtx.Child("serve")
			sc.Ctx = serveCtx
			serveStart := tr.Now()
			serveStartV := s.sim.Now()
			result, err := s.handler.HandleCall(sc, env.Method, env.Body)
			hServe.Record(int64(s.sim.Now() - serveStartV))
			sc.Ctx = conn.Ctx()
			reply := wire.Envelope{ID: env.ID, Kind: wire.KindReply, Req: serveCtx.Req, Span: serveCtx.Span}
			outcome := "ok"
			buf := wire.GetBuf()
			if err != nil {
				reply.Error = err.Error()
				outcome = "error"
			} else if body, merr := marshalBody(*buf, s.codec, result); merr != nil {
				reply.Error = "rpc: marshal reply: " + merr.Error()
				outcome = "error"
			} else {
				*buf = body
			}
			if tr.Enabled() {
				tr.SpanCtx(serveCtx, "rpc", "serve:"+env.Method, host, conn.Flow(), corrID(conn, env.ID), serveStart,
					trace.Arg{Key: "outcome", Val: outcome})
			}
			conn.Network().Counters().AddKey("rpc", "serve", outcome, host, 1)
			if sc.out.sendFrame(&reply, buf) == ErrClosed {
				return
			}
		case wire.KindNotify:
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
