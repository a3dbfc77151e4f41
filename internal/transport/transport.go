// Package transport implements a simulated message network over the vtime
// kernel: named hosts, service listeners, reliable in-order connections
// with configurable latency, and failure injection (crash, hang,
// partition).
//
// The failure model distinguishes the two failure visibilities the paper
// cares about: a *crash* closes connections so peers get an explicit error,
// while a *hang* silently drops traffic so peers observe only lack of
// progress and must rely on timeouts.
package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"cogrid/internal/flightrec"
	"cogrid/internal/metrics"
	"cogrid/internal/trace"
	"cogrid/internal/vtime"
)

// Errors returned by transport operations.
var (
	ErrHostDown    = errors.New("transport: local host is down")
	ErrRefused     = errors.New("transport: connection refused")
	ErrDialTimeout = errors.New("transport: dial timed out")
	ErrClosed      = errors.New("transport: connection closed")
	ErrRecvTimeout = errors.New("transport: receive timed out")
	// ErrWouldBlock is what TryRecv and TryAccept return when nothing has
	// arrived yet.
	ErrWouldBlock = errors.New("transport: nothing has arrived")
)

// Addr names a service endpoint as host:service.
type Addr struct {
	Host    string
	Service string
}

func (a Addr) String() string { return a.Host + ":" + a.Service }

// ParseAddr splits "host:service" into an Addr.
func ParseAddr(s string) (Addr, error) {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			if i == 0 || i == len(s)-1 {
				break
			}
			return Addr{Host: s[:i], Service: s[i+1:]}, nil
		}
	}
	return Addr{}, fmt.Errorf("transport: malformed address %q", s)
}

// LatencyModel yields the one-way message latency between two hosts.
type LatencyModel interface {
	Latency(from, to string) time.Duration
}

// UniformLatency is a LatencyModel with a single inter-host latency and
// zero latency between co-located endpoints.
type UniformLatency time.Duration

// Latency implements LatencyModel.
func (u UniformLatency) Latency(from, to string) time.Duration {
	if from == to {
		return 0
	}
	return time.Duration(u)
}

// MatrixLatency is a LatencyModel with per-host-pair latencies. Pairs are
// symmetric; missing pairs fall back to Default.
type MatrixLatency struct {
	Default time.Duration
	pairs   map[[2]string]time.Duration
}

// NewMatrixLatency creates a MatrixLatency with the given fallback.
func NewMatrixLatency(def time.Duration) *MatrixLatency {
	return &MatrixLatency{Default: def, pairs: make(map[[2]string]time.Duration)}
}

// Set assigns the symmetric latency between hosts a and b.
func (m *MatrixLatency) Set(a, b string, d time.Duration) {
	m.pairs[pairKey(a, b)] = d
}

// Latency implements LatencyModel.
func (m *MatrixLatency) Latency(from, to string) time.Duration {
	if from == to {
		return 0
	}
	if d, ok := m.pairs[pairKey(from, to)]; ok {
		return d
	}
	return m.Default
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// hostState models the failure condition of a host.
type hostState int

const (
	hostUp hostState = iota
	hostCrashed
	hostHung
)

// Network is a simulated network of hosts.
type Network struct {
	sim     *vtime.Sim
	latency LatencyModel

	hosts      map[string]*Host
	partitions map[[2]string]bool
	connSeq    uint64 // establishment order, for deterministic failure sweeps

	msgs  int64
	bytes int64

	tracer   *trace.Tracer
	counters *trace.Counters
	// connFamily is the attached registry's family of per-connection
	// counters, which every new connection end joins.
	connFamily *trace.Family
	gauges     *metrics.GaugeSet
	hists      *metrics.HistogramSet
	samples    *metrics.SampleLogSet
	flight     *flightrec.Recorder

	// bufs is the free list of encode buffers (GetBuf, PutBuf).
	bufs []*[]byte
	// pipes heads the free list of connection pipes, linked through one end
	// of each (newConnPair, settle).
	pipes *pipeEnd
}

// New creates a network on sim with the given latency model.
func New(sim *vtime.Sim, latency LatencyModel) *Network {
	return &Network{
		sim:        sim,
		latency:    latency,
		hosts:      make(map[string]*Host),
		partitions: make(map[[2]string]bool),
	}
}

// Sim returns the kernel the network runs on.
func (n *Network) Sim() *vtime.Sim { return n.sim }

// Messages returns the total number of payload messages sent.
func (n *Network) Messages() int64 { return n.msgs }

// Bytes returns the total payload bytes sent.
func (n *Network) Bytes() int64 { return n.bytes }

// SetTracer attaches a tracer to the network. Every layer above (rpc, gram,
// duroc) reads the tracer from here, so one attachment instruments the
// whole stack. A nil tracer (the default) disables tracing.
func (n *Network) SetTracer(t *trace.Tracer) { n.tracer = t }

// Tracer returns the attached tracer, or nil (which is itself a valid
// no-op tracer).
func (n *Network) Tracer() *trace.Tracer { return n.tracer }

// SetCounters attaches a counter registry. With a registry attached the
// network maintains per-host and per-connection message, byte, and drop
// counters; without one those paths cost nothing.
func (n *Network) SetCounters(c *trace.Counters) {
	n.connFamily = c.Family("transport", "conn", connVerbs[:]...)
	n.counters = c
}

// Counters returns the attached registry, or nil.
func (n *Network) Counters() *trace.Counters { return n.counters }

// SetGauges attaches a gauge registry. Layers above read it from here (as
// with Tracer and Counters) to record virtual-time level indicators such
// as queue depth and busy processors. A nil set (the default) disables
// gauges.
func (n *Network) SetGauges(g *metrics.GaugeSet) { n.gauges = g }

// Gauges returns the attached gauge registry, or nil (which is itself a
// valid no-op registry).
func (n *Network) Gauges() *metrics.GaugeSet { return n.gauges }

// SetHists attaches a histogram registry. As with Tracer/Counters/Gauges,
// every layer above reads it from here, so one attachment threads latency
// histograms through the whole stack. A nil set (the default) disables
// them; recording into a nil histogram is a no-op.
func (n *Network) SetHists(h *metrics.HistogramSet) { n.hists = h }

// Hists returns the attached histogram registry, or nil (which is itself a
// valid no-op registry).
func (n *Network) Hists() *metrics.HistogramSet { return n.hists }

// SetSamples attaches a sample-log registry: timestamped observation
// streams the SLO engine queries over sliding windows. As with the other
// registries, layers above read it from here. Nil disables it.
func (n *Network) SetSamples(s *metrics.SampleLogSet) { n.samples = s }

// Samples returns the attached sample-log registry, or nil (which is
// itself a valid no-op registry).
func (n *Network) Samples() *metrics.SampleLogSet { return n.samples }

// SetFlightRec attaches the flight recorder so any layer can freeze the
// black box at a trigger point (watchdog abort, orphan record, replica
// crash). Nil (the default) disables triggers.
func (n *Network) SetFlightRec(r *flightrec.Recorder) { n.flight = r }

// FlightRec returns the attached flight recorder, or nil (which is itself
// a valid no-op recorder).
func (n *Network) FlightRec() *flightrec.Recorder { return n.flight }

// GetBuf lends an empty encode buffer: where rpc appends a body and the
// head of its frame, and gsi a handshake frame, before the send copies what
// goes on the wire. A send never blocks, so every buffer is back (PutBuf)
// before another process or task runs, and the list holds at most the two
// one frame borrows: its body and its head.
func (n *Network) GetBuf() *[]byte {
	if k := len(n.bufs); k > 0 {
		b := n.bufs[k-1]
		n.bufs = n.bufs[:k-1]
		return b
	}
	b := make([]byte, 0, 512)
	return &b
}

// PutBuf returns a buffer GetBuf lent. One grown past 64 KiB is dropped, so
// a single huge body does not keep its capacity for the rest of the run.
func (n *Network) PutBuf(b *[]byte) {
	if cap(*b) > 1<<16 {
		return
	}
	*b = (*b)[:0]
	n.bufs = append(n.bufs, b)
}

// AddHost registers a host by name. Adding an existing name returns the
// existing host.
func (n *Network) AddHost(name string) *Host {
	if h, ok := n.hosts[name]; ok {
		return h
	}
	h := &Host{
		net:       n,
		name:      name,
		listeners: make(map[string]*Listener),
		conns:     make(map[*Conn]struct{}),
	}
	n.hosts[name] = h
	return h
}

// Host returns the named host, or nil if it was never added.
func (n *Network) Host(name string) *Host {
	return n.hosts[name]
}

// Partition severs connectivity between hosts a and b: packets in either
// direction are silently dropped and new dials time out.
func (n *Network) Partition(a, b string) {
	n.partitions[pairKey(a, b)] = true
}

// Heal restores connectivity between hosts a and b.
func (n *Network) Heal(a, b string) {
	delete(n.partitions, pairKey(a, b))
}

// Partitioned reports whether hosts a and b are partitioned.
func (n *Network) Partitioned(a, b string) bool {
	return n.partitions[pairKey(a, b)]
}

// deliverable reports whether a packet sent now from one host would reach
// the other, considering partitions and remote failure state.
func (n *Network) deliverable(from, to string) bool {
	if n.partitions[pairKey(from, to)] {
		return false
	}
	h, ok := n.hosts[to]
	return ok && h.state == hostUp
}

// Host is a simulated machine on the network.
type Host struct {
	net   *Network
	name  string
	state hostState

	listeners map[string]*Listener
	conns     map[*Conn]struct{}

	// counted caches the handles of the host's message and byte counters,
	// the pair for each verb resolved by the host's first message that way.
	counted [len(hostVerbs)]hostCounters
}

// The per-host counters' verbs: a send counts against the sender's host, a
// delivery against the receiver's.
const (
	hostSend = iota
	hostRecv
)

var hostVerbs = [...]string{hostSend: "send", hostRecv: "recv"}

// hostCounters are one host's transport.msgs.<verb>@host and
// transport.bytes.<verb>@host handles for one verb, in the registry they
// were resolved in.
type hostCounters struct {
	reg         *trace.Counters
	msgs, bytes *trace.Counter
}

// count adds one message of size bytes to the host's counters for verb.
// Their names are built once per host: at its first message that way and no
// earlier — a counter must not exist (and print as 0) before it has counted
// — and again if another registry has been attached since.
func (h *Host) count(verb, size int) {
	ctrs := h.net.Counters()
	if ctrs == nil {
		return
	}
	hc := &h.counted[verb]
	if hc.reg != ctrs {
		*hc = hostCounters{
			reg:   ctrs,
			msgs:  ctrs.C(trace.Key("transport", "msgs", hostVerbs[verb], h.name)),
			bytes: ctrs.C(trace.Key("transport", "bytes", hostVerbs[verb], h.name)),
		}
	}
	hc.msgs.Add(1)
	hc.bytes.Add(int64(size))
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// Up reports whether the host is neither crashed nor hung.
func (h *Host) Up() bool {
	return h.state == hostUp
}

// Crash fails the host with detectable semantics: all its connections are
// closed (peers observe ErrClosed) and its listeners stop accepting.
func (h *Host) Crash() { h.fail(hostCrashed) }

// Hang fails the host silently: connections stay open but all traffic to
// and from it is dropped, so peers observe only lack of progress.
func (h *Host) Hang() {
	if h.state == hostUp {
		h.state = hostHung
	}
}

func (h *Host) fail(to hostState) {
	h.state = to
	conns := make([]*Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.conns = make(map[*Conn]struct{})
	listeners := make([]*Listener, 0, len(h.listeners))
	for _, l := range h.listeners {
		listeners = append(listeners, l)
	}
	h.listeners = make(map[string]*Listener)
	// Close in establishment order, not map order: every Close wakes the
	// connection's blocked peers, and the wake sequence must be a function
	// of the seed, not of map iteration.
	sort.Slice(conns, func(i, j int) bool { return conns[i].estSeq < conns[j].estSeq })
	sort.Slice(listeners, func(i, j int) bool { return listeners[i].service < listeners[j].service })
	for _, c := range conns {
		c.Close()
	}
	for _, l := range listeners {
		l.close(false)
	}
}

// Restore brings a hung host back. A crashed host stays down: its
// listeners and connections are gone; re-create services explicitly after
// RestoreCrashed.
func (h *Host) Restore() {
	if h.state == hostHung {
		h.state = hostUp
	}
}

// RestoreCrashed boots a crashed host back up with no listeners or
// connections.
func (h *Host) RestoreCrashed() {
	h.state = hostUp
}

// Listen registers a service listener on the host.
func (h *Host) Listen(service string) (*Listener, error) {
	if h.state != hostUp {
		return nil, ErrHostDown
	}
	if _, exists := h.listeners[service]; exists {
		return nil, fmt.Errorf("transport: service %q already listening on %s", service, h.name)
	}
	l := &Listener{host: h, service: service}
	l.accept.Init(h.net.sim, (*acceptQueue)(l), 64)
	h.listeners[service] = l
	return l, nil
}

// DialTimeout is the default timeout for Dial attempts into a partition or
// a hung host.
const DialTimeout = 30 * time.Second

// Dial opens a connection from this host to a remote service. Connection
// establishment costs one round trip. Dialing a crashed host or a missing
// service is refused after one round trip; dialing through a partition or
// into a hung host times out after DialTimeout.
func (h *Host) Dial(to Addr) (*Conn, error) { return h.DialCtx(to, trace.Ctx{}) }

// DialCtx is Dial carrying a causal span context. The context becomes the
// connection's base context: handshake traffic and any context-less sends
// on the connection inherit it, and it disambiguates the connection's flow
// identifier (see newConnPair).
func (h *Host) DialCtx(to Addr, ctx trace.Ctx) (*Conn, error) {
	n := h.net
	if h.state != hostUp {
		return nil, ErrHostDown
	}

	oneWay := n.latency.Latency(h.name, to.Host)
	dialStart := n.sim.Now()
	// SYN retransmission: an unreachable peer (partition, crash, hang)
	// never answers, but the dialer keeps retrying within its timeout, so
	// a transient partition that heals mid-dial still connects.
	const synRetry = time.Second
	deadline := dialStart + DialTimeout
	for !n.deliverable(h.name, to.Host) {
		remaining := deadline - n.sim.Now()
		if remaining <= 0 {
			h.traceFailedDial(to, ctx, dialStart, "timeout")
			return nil, ErrDialTimeout
		}
		if remaining < synRetry {
			n.sim.Sleep(remaining)
		} else {
			n.sim.Sleep(synRetry)
		}
	}
	n.sim.Sleep(oneWay) // SYN

	// Re-check the local host before registering the conn pair: the host
	// may have crashed or hung during the SYN sleep, and its sweep already
	// ran. Registering now would attach live connections to a
	// swept host — they would never be closed by a later failure.
	if h.state != hostUp {
		h.traceFailedDial(to, ctx, dialStart, "local-down")
		return nil, ErrHostDown
	}
	remote, ok := n.hosts[to.Host]
	var l *Listener
	if ok && remote.state == hostUp {
		l = remote.listeners[to.Service]
	}
	refused := l == nil
	var client, server *Conn
	if !refused {
		client, server = newConnPair(h, remote, to.Service, ctx)
		h.conns[client] = struct{}{}
		remote.conns[server] = struct{}{}
	}

	n.sim.Sleep(oneWay) // SYN-ACK
	if refused {
		h.traceFailedDial(to, ctx, dialStart, "refused")
		return nil, ErrRefused
	}
	if !l.accept.TrySend(server) {
		// Accept backlog full: refuse.
		client.Close()
		h.traceFailedDial(to, ctx, dialStart, "backlog-full")
		return nil, ErrRefused
	}
	if tr := n.Tracer(); tr.Enabled() {
		names := client.names()
		tr.SpanCtx(tr.Child(ctx, "dial"), "transport", "dial", h.name, names.to, names.flow, dialStart,
			trace.Arg{Key: "outcome", Val: "ok"})
	}
	return client, nil
}

// traceFailedDial records the span of a dial that made no connection; its
// context and the address string are built only if a tracer is there to
// take them.
func (h *Host) traceFailedDial(to Addr, ctx trace.Ctx, start time.Duration, outcome string) {
	if tr := h.net.Tracer(); tr.Enabled() {
		tr.SpanCtx(tr.Child(ctx, "dial"), "transport", "dial", h.name, to.String(), "", start,
			trace.Arg{Key: "outcome", Val: outcome})
	}
}

// Listener accepts inbound connections for one service.
type Listener struct {
	host    *Host
	service string
	accept  vtime.Chan[*Conn]
	closed  bool
}

// acceptQueue names a listener's accept queue for deadlock reports.
type acceptQueue Listener

func (q *acceptQueue) String() string { return "accept:" + q.host.name + ":" + q.service }

// Addr returns the listener's address.
func (l *Listener) Addr() Addr { return Addr{Host: l.host.name, Service: l.service} }

// Accept blocks until a connection arrives; ok is false once the listener
// is closed.
func (l *Listener) Accept() (*Conn, bool) {
	return l.accept.Recv()
}

// TryAccept is Accept for a task step, which cannot wait: it returns
// ErrWouldBlock when no connection has arrived and ErrClosed once the
// listener is closed.
func (l *Listener) TryAccept() (*Conn, error) {
	conn, res := l.accept.RecvTimeout(0)
	return conn, tryResult(res)
}

// ReadyOnArrival readies t once, when the next connection arrives or the
// listener closes (see vtime.Chan.ReadyOnArrival).
func (l *Listener) ReadyOnArrival(t *vtime.Task) { l.accept.ReadyOnArrival(t) }

// tryResult names the outcome of a receive that did not wait.
func tryResult(res vtime.RecvResult) error {
	switch res {
	case vtime.RecvOK:
		return nil
	case vtime.RecvClosed:
		return ErrClosed
	default:
		return ErrWouldBlock
	}
}

// Close stops the listener and deregisters the service.
func (l *Listener) Close() { l.close(true) }

func (l *Listener) close(deregister bool) {
	if l.closed {
		return
	}
	l.closed = true
	if deregister {
		if l.host.listeners[l.service] == l {
			delete(l.host.listeners, l.service)
		}
	}
	l.accept.Close()
}

// msg is one message's bytes: the part sent for it alone, own, and the part
// it shares with other messages, if any (see SendShared). Nothing appends to
// a message, so own is kept without its capacity, and a queued message is
// three words, as the one slice a message was before it could come in parts:
// a delivery pipeline's entry and an inbox's ring slot cost no more.
type msg struct {
	own    *byte
	n      int
	shared *[]byte
}

func newMsg(own []byte, shared *[]byte) msg {
	return msg{unsafe.SliceData(own), len(own), shared}
}

// parts returns the message's own and shared parts (shared empty for one
// sent whole).
func (m msg) parts() (own, shared []byte) {
	if m.shared != nil {
		shared = *m.shared
	}
	return unsafe.Slice(m.own, m.n), shared
}

// size is the message's length, both parts.
func (m msg) size() int {
	own, shared := m.parts()
	return len(own) + len(shared)
}

// pendingMsg is one sent message on its way to the peer.
type pendingMsg struct {
	msg
	sentAt time.Duration
	// ctx is the causal context of the send, stamped on the matching recv
	// or drop event at the far end of the wire.
	ctx trace.Ctx
}

// outMsg is an entry in a connection's delivery pipeline: a payload or a
// FIN.
type outMsg struct {
	pendingMsg
	deliverAt time.Duration
	fin       bool
}

// maxInFlight bounds a connection end's delivery pipeline: the message
// whose delivery time the end is waiting for plus 4 095 behind it. The FIN
// is exempt, which is what keeps a close detectable under overload.
const maxInFlight = 4096

// Conn is one end of a reliable, in-order, message-oriented connection.
//
// A Conn is the end's identity: its addresses, its peer, its names, its
// counters. What moves its messages is a pipe end (pipeEnd), which the
// network lends it at the dial and takes back once the connection is quiet
// (see Network.settle); from then on p is nil, and the Conn behaves as the
// closed, drained end it is. A holder that keeps a Conn past its close — a
// late reply, a receive step already queued — can therefore never reach
// the connection the pipe serves next.
type Conn struct {
	net    *Network
	host   *Host  // the local end's host
	estSeq uint64 // establishment order; failure sweeps close in this order
	local  Addr
	remote Addr
	peer   *Conn
	// p is this end of the connection's pipe, nil once it has gone back.
	p *pipeEnd

	// est is the establishment time and server marks the accepting end;
	// with ctx they determine the connection's names (see names), which are
	// built for both ends when something first asks for either's.
	est    time.Duration
	server bool
	closed bool
	named  *connNames
	// ctx is the base causal context the connection was dialed under;
	// both ends share it. Context-less sends inherit it.
	ctx trace.Ctx
	// stats holds the end's own counters, nil when no registry is attached.
	stats *connStats
	// Cached histogram handles (shared network-wide, not per-connection, to
	// bound cardinality), nil when no registry is attached.
	hBytes, hDelay *metrics.Histogram
}

// pipeEnd moves one connection end's messages. An end owns no process.
// Messages it has sent wait in out, in send order, and one kernel task
// (deliver) walks them: readied by the send that finds the pipeline idle, it
// arms itself for the head's delivery time, and when that fires delivers the
// head and everything behind it that is also due, then re-arms for the next
// head or goes idle: timer for timer the schedule of a process looping over
// "receive from out; sleep until deliverAt; deliver". What the peer sent
// waits in in.
//
// A pipe is both ends in one allocation, each with the first slots of its
// pipeline and its inbox, so that a short exchange queues nothing on the
// heap; a longer queue moves to the heap and leaves these slots empty. Pipes
// are lent by the network and come back to it (newConnPair, settle).
type pipeEnd struct {
	conn *Conn    // the end this one serves, nil while the pipe is free
	peer *pipeEnd // the pipe's other end, for good
	next *pipeEnd // the next free pipe, while this one is on the free list
	in   vtime.Chan[msg]

	// The delivery pipeline: out[outHead:] is in flight, delivering says the
	// deliver task is armed or queued (so a send only appends), sealed that
	// the FIN is in (or the peer's has arrived) and nothing more may enter.
	// out is non-empty only while delivering.
	out        []outMsg
	outHead    int
	delivering bool
	sealed     bool
	deliver    vtime.Task

	firstOut [2]outMsg
	firstIn  [4]msg
}

// The per-connection counters, transport.conn.<verb>@<dir>: connVerbs[i]
// names connStats.ctr[i].
const (
	ctrSend = iota
	ctrSendBytes
	ctrRecv
	ctrRecvBytes
	ctrDrop
	numConnCtrs
)

var connVerbs = [numConnCtrs]string{"send", "sendbytes", "recv", "recvbytes", "drop"}

// connStats is the part of a connection end the counter registry keeps: its
// counters, and the facts its directional name is rendered from on the day
// somebody reads the registry (see trace.Family and trace.Scope). Two ends
// whose names render equal — same direction, same dial microsecond — share
// one line per verb there.
type connStats struct {
	local, remote Addr
	est           time.Duration
	ctr           [numConnCtrs]trace.Counter
}

// add counts delta under verb. A nil *connStats is a valid no-op.
func (s *connStats) add(verb int, delta int64) {
	if s != nil {
		s.ctr[verb].Add(delta)
	}
}

// AppendScope appends the end's directional name, connNames.dir: the scope
// its counters are read under (trace.Scope).
func (s *connStats) AppendScope(dst []byte) []byte {
	var ts [20]byte
	return appendDir(dst, s.local, "->", s.remote, strconv.AppendInt(ts[:0], int64(s.est/time.Microsecond), 10))
}

// dirLen is the length of what appendDir appends with a two-byte arrow.
func dirLen(from, to Addr, ts []byte) int {
	return len(from.Host) + len(from.Service) + len(to.Host) + len(to.Service) + len(ts) + 5
}

// appendDir appends from<arrow>to@ts.
func appendDir(dst []byte, from Addr, arrow string, to Addr, ts []byte) []byte {
	dst = append(dst, from.Host...)
	dst = append(dst, ':')
	dst = append(dst, from.Service...)
	dst = append(dst, arrow...)
	dst = append(dst, to.Host...)
	dst = append(dst, ':')
	dst = append(dst, to.Service...)
	dst = append(dst, '@')
	return append(dst, ts...)
}

// connNames are the strings that identify a connection end to tracing and
// deadlock reports. flow identifies the pair (client=>server@establish-time);
// both ends share it, so it correlates trace events across the two hosts.
// dir is this end's directional name (local->remote@t), the scope of its
// counters; to is the remote address, a hop span's "to" argument.
type connNames struct{ flow, dir, to string }

// names builds the pair's names on first use, both ends' in one string and
// one two-entry struct. Two dials between the same host pair in the same
// microsecond would collide on the flow, so when a dial carries a causal
// context a short hash of it (FNV-1a over request, NUL, span) is appended —
// the contexts of simultaneous dials differ, keeping flows (and the
// correlation IDs layered on them) unique per connection.
func (c *Conn) names() *connNames {
	if c.named != nil {
		return c.named
	}
	client := c
	if c.server {
		client = c.peer
	}
	ends := [2]*Conn{client, client.peer}
	var ts [20]byte
	t := strconv.AppendInt(ts[:0], int64(c.est/time.Microsecond), 10)
	var sb strings.Builder
	dl := dirLen(client.local, client.remote, t) // either end's dir, and the flow before its hash
	sb.Grow(3*dl + 9)                            // two dirs, flow, "~" and eight hex digits
	var dir [128]byte                            // on the stack: sb copies what is appended to it
	for _, e := range ends {
		sb.Write(appendDir(dir[:0], e.local, "->", e.remote, t))
	}
	sb.Write(appendDir(dir[:0], client.local, "=>", client.remote, t))
	if c.ctx.Valid() {
		h := fnv1a(fnv1a(fnv1a(fnvOffset32, c.ctx.Req), "\x00"), c.ctx.Span)
		var hex [8]byte
		sb.WriteByte('~')
		sb.Write(strconv.AppendUint(hex[:0], uint64(h), 16))
	}
	all := sb.String()
	named := new([2]connNames)
	for i, e := range ends {
		dir := all[i*dl : (i+1)*dl]
		toAt := len(e.local.Host) + len(e.local.Service) + 3
		named[i] = connNames{flow: all[2*dl:], dir: dir, to: dir[toAt : dl-len(t)-1]}
		e.named = &named[i]
	}
	return c.named
}

// fnv1a folds s into the 32-bit FNV-1a hash h (hash/fnv's New32a, without
// the hasher).
func fnv1a(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

const fnvOffset32 = 2166136261

// String returns the end's directional tag, local->remote.
func (c *Conn) String() string { return c.local.String() + "->" + c.remote.String() }

// inbox names a connection's receive channel for deadlock reports.
type inbox pipeEnd

func (i *inbox) String() string { return "in:" + i.conn.String() }

// deliverer is a pipe end's task body.
type deliverer pipeEnd

// Flow returns the connection-pair identifier shared by both ends: the
// client and server addresses plus the establishment time in microseconds.
// Layers above use it to build correlation IDs that match across hosts.
func (c *Conn) Flow() string { return c.names().flow }

// Network returns the network the connection runs on. Layers above use it
// to reach the attached Tracer and Counters.
func (c *Conn) Network() *Network { return c.net }

// Ctx returns the base causal context the connection was dialed under
// (zero for context-less dials). Both ends share it.
func (c *Conn) Ctx() trace.Ctx { return c.ctx }

// newConnPair builds both ends of a connection from a client on host from
// to service on host to, in one allocation: their identities and a pipe from
// the network's free list, or, while the list is empty, their identities
// and a new pipe (freshConn). Both ends' counters, if a registry is
// attached, take another.
func newConnPair(from, to *Host, service string, ctx trace.Ctx) (client, server *Conn) {
	n := from.net
	var ends *[2]Conn
	if e := n.pipes; e != nil {
		n.pipes, e.next = e.next, nil
		ends = new([2]Conn)
		ends[0].p, ends[1].p = e, e.peer
	} else {
		f := new(freshConn)
		ends = &f.ends
		for i := range f.pipe {
			e := &f.pipe[i]
			e.peer = &f.pipe[1-i]
			e.deliver.Init(n.sim, (*deliverer)(e))
			e.reset(n.sim)
			ends[i].p = e
		}
	}
	client, server = &ends[0], &ends[1]
	client.host, client.local = from, Addr{from.name, "client"}
	server.host, server.local, server.server = to, Addr{to.name, service}, true
	client.remote, server.remote = server.local, client.local
	client.peer, server.peer = server, client
	fam, hs := n.connFamily, n.hists
	var stats *[2]connStats
	if fam != nil {
		stats = new([2]connStats)
	}
	for i := range ends {
		c := &ends[i]
		n.connSeq++
		c.net, c.estSeq, c.est, c.ctx = n, n.connSeq, n.sim.Now(), ctx
		c.p.conn = c
		if stats != nil {
			c.stats = &stats[i]
			c.stats.local, c.stats.remote, c.stats.est = c.local, c.remote, c.est
			fam.Member(c.stats, c.stats.ctr[:])
		}
		if hs != nil {
			c.hBytes = hs.H("transport.msg.bytes")
			c.hDelay = hs.H("transport.msg.delay")
		}
	}
	return client, server
}

// freshConn is a dial's one allocation while the network has no pipe to
// lend: the two identities and a new pipe, which outlives them on the free
// list (it keeps their block, 1 536 bytes, alive). A dial makes one
// allocation either way, and a run makes as many pipes as it has
// connections open at once.
type freshConn struct {
	ends [2]Conn
	pipe [2]pipeEnd
}

// settle takes c's pipe back once the connection is quiet: both ends
// closed, neither with a message in flight or a deliver task pending, both
// inboxes quiet (vtime.Chan.Quiet). It is called where that can become
// true: as a deliver task goes idle — having delivered the FIN, the case of
// every one-shot connection — and as a receive finds its end closed and
// drained. (A close cannot be the moment: it sends a FIN, or runs inside
// the step that delivers the peer's.) Nothing of the kernel's refers to the
// pipe then: its deliver tasks are neither filed nor queued, and a task
// step returns before the dispatcher moves on. Both ends' identities let go
// of it, so the connection the pipe serves next is out of their reach, and
// a receiver woken by the close that resumes later does not touch the inbox
// (vtime.Chan.Quiet), which is therefore made new at once.
func (n *Network) settle(c *Conn) {
	e := c.p
	if e == nil || !e.quiet() || !e.peer.quiet() {
		return
	}
	for _, e := range [2]*pipeEnd{e, e.peer} {
		e.conn.p, e.conn = nil, nil
		e.reset(n.sim)
	}
	e.next, n.pipes = n.pipes, e
}

// reset makes a pipe end as new, back at its first slots: a pipeline or an
// inbox ring that grew to the heap is not kept while the pipe waits to be
// lent again.
func (e *pipeEnd) reset(sim *vtime.Sim) {
	e.out = e.firstOut[:0]
	e.in.InitFirst(sim, (*inbox)(e), 4096, e.firstIn[:])
	e.sealed = false
}

// quiet reports whether nothing will touch this end of a pipe again.
func (e *pipeEnd) quiet() bool { return !e.delivering && e.in.Quiet() }

// RunTask is one step of the delivery pipeline: it moves every message that
// is due from this end's out queue into the peer's inbox, preserving FIFO
// order — the head's delivery time gates everything behind it, whatever
// the latency model says now — and arms itself for the next head.
func (d *deliverer) RunTask() {
	e := (*pipeEnd)(d)
	c := e.conn
	now := c.net.sim.Now()
	for {
		if e.outHead == len(e.out) {
			e.out, e.outHead, e.delivering = e.out[:0], 0, false
			c.net.settle(c)
			return
		}
		if at := e.out[e.outHead].deliverAt; at > now {
			e.deliver.At(at)
			return
		}
		m := e.out[e.outHead]
		e.out[e.outHead] = outMsg{}
		e.outHead++
		if m.fin {
			c.peer.shut(false) // the peer's receive side closes
			continue           // nothing is behind a FIN
		}
		c.deliverOne(m.pendingMsg, c.net.deliverable(c.local.Host, c.remote.Host))
	}
}

// deliverOne lands one payload in the peer's inbox (or accounts for its
// loss), recording per-message delay, counters, and the recv trace event.
func (c *Conn) deliverOne(m pendingMsg, deliverable bool) {
	size := m.size()
	if !deliverable {
		c.dropped(size, "in-flight", m.ctx)
		return
	}
	if !c.p.peer.in.TrySend(m.msg) { // inbox overflow drops, like UDP under DoS
		c.dropped(size, "overflow", m.ctx)
		return
	}
	// Enqueue-to-delivery virtual delay: wire latency plus any FIFO
	// backlog behind earlier messages on this connection.
	c.hDelay.Record(int64(c.net.sim.Now() - m.sentAt))
	c.peer.stats.add(ctrRecv, 1)
	c.peer.stats.add(ctrRecvBytes, int64(size))
	c.peer.host.count(hostRecv, size)
	if tr := c.net.Tracer(); tr.Enabled() {
		tr.InstantCtx(m.ctx, "transport", "recv", c.remote.Host, c.peer.names().dir, c.Flow(),
			trace.Arg{Key: "bytes", Val: tr.Itoa(size)})
	}
}

// dropped accounts for a message lost on this end's send path: the
// per-conn counter, per-host and per-reason registry counters, the
// network-wide drop gauge the SLO engine windows over, and a trace
// instant carrying the reason. "conn-closed" is excluded from the SLO
// gauge — losing a message to a connection the application itself is
// tearing down is a normal shutdown race, not wire loss.
func (c *Conn) dropped(size int, reason string, ctx trace.Ctx) {
	c.stats.add(ctrDrop, 1)
	if ctrs := c.net.Counters(); ctrs != nil {
		ctrs.AddKey("transport", "msgs", "drop", c.local.Host, 1)
		ctrs.AddKey("transport", "drop", reason, c.local.Host, 1)
	}
	if reason != "conn-closed" {
		c.net.Gauges().G("transport.drops").Add(1)
	}
	if tr := c.net.Tracer(); tr.Enabled() {
		tr.InstantCtx(ctx, "transport", "drop", c.local.Host, c.names().dir, c.Flow(),
			trace.Arg{Key: "bytes", Val: tr.Itoa(size)},
			trace.Arg{Key: "reason", Val: reason})
	}
}

// LocalAddr returns this end's address.
func (c *Conn) LocalAddr() Addr { return c.local }

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() Addr { return c.remote }

// Send transmits payload to the peer. It fails if the connection is closed
// or the local host is down; a partition or remote failure silently drops
// the message instead (the peer sees lack of progress, not an error).
//
// The peer receives a copy of payload, so the caller may reuse payload at
// once. What the peer receives is its own, and nothing writes to it
// afterwards: a receiver may decode it into views of its bytes (see
// internal/wire).
func (c *Conn) Send(payload []byte) error { return c.SendCtx(payload, c.ctx) }

// SendCtx is Send carrying the causal context of this message: the hop
// span and the far end's recv (or drop) event are stamped into that
// request's tree. A zero context falls back to the connection's base
// context.
func (c *Conn) SendCtx(payload []byte, ctx trace.Ctx) error {
	return c.SendShared(bytes.Clone(payload), nil, ctx)
}

// SendShared is SendCtx without the copy: the peer receives own and
// *shared themselves, which nobody writes again. own is this message's
// alone; shared points at a part many messages carry alike (a body every
// rank of a release is sent), kept where the sender keeps it, or is nil:
// a queued message holds the pointer, not a slice of its own. The message
// is both parts: its length is theirs together in every counter, span and
// drop, and the peer receives them together (TryRecv). How they make one
// payload is the two ends' codec's business (internal/wire's DecodeParts).
func (c *Conn) SendShared(own []byte, shared *[]byte, ctx trace.Ctx) error {
	if !ctx.Valid() {
		ctx = c.ctx
	}
	if c.closed {
		return ErrClosed
	}
	n := c.net
	h := n.hosts[c.local.Host]
	localUp := h != nil && h.state == hostUp
	if !localUp {
		return ErrHostDown
	}
	m := newMsg(own, shared)
	size := m.size()
	if !n.deliverable(c.local.Host, c.remote.Host) {
		c.dropped(size, "unreachable", ctx)
		return nil // silently dropped
	}
	n.msgs++
	n.bytes += int64(size)
	c.stats.add(ctrSend, 1)
	c.stats.add(ctrSendBytes, int64(size))
	c.host.count(hostSend, size)
	c.hBytes.Record(int64(size))
	now := n.sim.Now()
	oneWay := n.latency.Latency(c.local.Host, c.remote.Host)
	// One hop span per send, covering the wire time to the peer.
	c.traceHop(ctx, size, now, now+oneWay)
	ok := c.p.enqueue(outMsg{pendingMsg: pendingMsg{m, now, ctx}, deliverAt: now + oneWay})
	if !ok {
		// The delivery queue is saturated (extreme overload) or the send
		// raced with a close. Either way the message is lost here, and the
		// loss must be accounted: everything above already counted it as
		// sent, so silence would leave send-minus-recv unexplained.
		c.dropped(size, "sendq-full", ctx)
	}
	return nil
}

// enqueue places m in the delivery pipeline and, if the pipeline was
// idle, readies the deliver task: it runs when the sender next blocks,
// never inside the send. Returns false when the pipeline is saturated or
// sealed.
func (e *pipeEnd) enqueue(m outMsg) bool {
	if e.sealed || !m.fin && len(e.out)-e.outHead >= maxInFlight {
		return false
	}
	// A pipeline that never drains is never rewound: rather than regrow, slide
	// the tail over a consumed prefix at least as long (storage stays O(in flight)).
	if h := e.outHead; len(e.out) == cap(e.out) && h >= len(e.out)-h && h > 0 {
		n := copy(e.out, e.out[h:])
		clear(e.out[n:])
		e.out, e.outHead = e.out[:n], 0
	}
	out := append(e.out, m)
	if len(e.out) == cap(e.out) {
		clear(e.out) // moved: the pipe's first slots keep no payload alive
	}
	e.out = out
	if !e.delivering {
		e.delivering = true
		e.deliver.Ready()
	}
	return true
}

// traceHop records one message's hop span; its context, arguments and
// strings are built only if a tracer is there to take them.
func (c *Conn) traceHop(ctx trace.Ctx, size int, start, end time.Duration) {
	if tr := c.net.Tracer(); tr.Enabled() {
		tr.SpanAtCtx(tr.Child(ctx, "hop"), "transport", "hop", c.local.Host, c.names().dir, c.Flow(), start, end,
			trace.Arg{Key: "bytes", Val: tr.Itoa(size)},
			trace.Arg{Key: "to", Val: c.names().to})
	}
}

// Recv blocks until a message arrives. It returns ErrClosed once the
// connection is closed and drained. The message is the receiver's, and
// nothing writes to it (see Send); so are those of RecvTimeout and TryRecv.
// Recv and RecvTimeout read messages sent whole, and panic on one sent with
// a shared part (SendShared), which TryRecv reads.
func (c *Conn) Recv() ([]byte, error) {
	m, res := c.recv(-1)
	if res != vtime.RecvOK {
		return nil, ErrClosed
	}
	return m.whole(), nil
}

// RecvTimeout blocks until a message arrives or d of virtual time elapses.
func (c *Conn) RecvTimeout(d time.Duration) ([]byte, error) {
	if d < 0 {
		panic("transport: negative receive timeout")
	}
	m, res := c.recv(d)
	switch res {
	case vtime.RecvOK:
		return m.whole(), nil
	case vtime.RecvClosed:
		return nil, ErrClosed
	default:
		return nil, ErrRecvTimeout
	}
}

// recv receives from the end's inbox, waiting up to d (Recv's -1: for
// good). An end whose pipe has gone back is closed and drained; one found
// closed and drained now may be the last thing its pipe waited for. The pipe
// is read again after the wait: it may have gone back, and out to another
// connection, meanwhile.
func (c *Conn) recv(d time.Duration) (msg, vtime.RecvResult) {
	if c.p == nil {
		return msg{}, vtime.RecvClosed
	}
	var m msg
	var res vtime.RecvResult
	if d < 0 {
		var ok bool
		if m, ok = c.p.in.Recv(); !ok {
			res = vtime.RecvClosed
		}
	} else {
		m, res = c.p.in.RecvTimeout(d)
	}
	if res == vtime.RecvClosed {
		c.net.settle(c)
	}
	return m, res
}

// whole returns a message sent without a shared part.
func (m msg) whole() []byte {
	own, shared := m.parts()
	if len(shared) != 0 {
		panic("transport: a message sent with a shared part is read with TryRecv")
	}
	return own
}

// TryRecv is Recv for a task step, which cannot wait, and for messages in
// parts: it returns a message's own and shared parts as SendShared sent
// them (shared empty for one sent whole), ErrWouldBlock when no message has
// arrived and ErrClosed once the connection is closed and drained.
func (c *Conn) TryRecv() (own, shared []byte, err error) {
	m, res := c.recv(0)
	own, shared = m.parts()
	return own, shared, tryResult(res)
}

// ReadyOnArrival readies t once, when the next message arrives or the
// connection closes (see vtime.Chan.ReadyOnArrival): the owner of the
// receive side is then a task whose step drains what has arrived with
// TryRecv and registers again, instead of a process parked in Recv. On an
// end whose pipe has gone back, it readies t at once.
func (c *Conn) ReadyOnArrival(t *vtime.Task) {
	if c.p == nil {
		t.Ready()
		return
	}
	c.p.in.ReadyOnArrival(t)
}

// Close closes this end immediately and, after one-way latency, the peer's
// end (the peer drains buffered messages first). Closing twice is a no-op.
func (c *Conn) Close() { c.shut(true) }

// shut closes this end, once. A close of the end's own making (fin) lets
// what it has sent drain to the peer and sends a FIN after it. An end that
// is open has its pipe: a pipe goes back only once both ends are closed.
func (c *Conn) shut(fin bool) {
	if c.closed {
		return
	}
	c.closed = true
	n := c.net
	if h := n.hosts[c.local.Host]; h != nil {
		delete(h.conns, c)
	}
	e := c.p
	e.in.Close()
	if fin {
		// Exempt from the pipeline's bound: the peer observes ErrClosed even
		// when the close finds the pipeline saturated, never a hang.
		e.enqueue(outMsg{deliverAt: n.sim.Now() + n.latency.Latency(c.local.Host, c.remote.Host), fin: true})
	}
	e.sealed = true
}
