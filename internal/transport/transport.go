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
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	mu      sync.Mutex
	pairs   map[[2]string]time.Duration
}

// NewMatrixLatency creates a MatrixLatency with the given fallback.
func NewMatrixLatency(def time.Duration) *MatrixLatency {
	return &MatrixLatency{Default: def, pairs: make(map[[2]string]time.Duration)}
}

// Set assigns the symmetric latency between hosts a and b.
func (m *MatrixLatency) Set(a, b string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pairs[pairKey(a, b)] = d
}

// Latency implements LatencyModel.
func (m *MatrixLatency) Latency(from, to string) time.Duration {
	if from == to {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
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

	mu         sync.Mutex
	hosts      map[string]*Host
	partitions map[[2]string]bool
	connSeq    uint64 // establishment order, for deterministic failure sweeps

	msgs  atomic.Int64
	bytes atomic.Int64

	tracer   atomic.Pointer[trace.Tracer]
	counters atomic.Pointer[trace.Counters]
	// connFamily is the attached registry's family of per-connection
	// counters, which every new connection end joins.
	connFamily atomic.Pointer[trace.Family]
	gauges     atomic.Pointer[metrics.GaugeSet]
	hists      atomic.Pointer[metrics.HistogramSet]
	samples    atomic.Pointer[metrics.SampleLogSet]
	flight     atomic.Pointer[flightrec.Recorder]
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
func (n *Network) Messages() int64 { return n.msgs.Load() }

// Bytes returns the total payload bytes sent.
func (n *Network) Bytes() int64 { return n.bytes.Load() }

// SetTracer attaches a tracer to the network. Every layer above (rpc, gram,
// duroc) reads the tracer from here, so one attachment instruments the
// whole stack. A nil tracer (the default) disables tracing.
func (n *Network) SetTracer(t *trace.Tracer) { n.tracer.Store(t) }

// Tracer returns the attached tracer, or nil (which is itself a valid
// no-op tracer).
func (n *Network) Tracer() *trace.Tracer { return n.tracer.Load() }

// SetCounters attaches a counter registry. With a registry attached the
// network maintains per-host and per-connection message, byte, and drop
// counters; without one those paths cost nothing.
func (n *Network) SetCounters(c *trace.Counters) {
	n.connFamily.Store(c.Family("transport", "conn", connVerbs[:]...))
	n.counters.Store(c)
}

// Counters returns the attached registry, or nil.
func (n *Network) Counters() *trace.Counters { return n.counters.Load() }

// SetGauges attaches a gauge registry. Layers above read it from here (as
// with Tracer and Counters) to record virtual-time level indicators such
// as queue depth and busy processors. A nil set (the default) disables
// gauges.
func (n *Network) SetGauges(g *metrics.GaugeSet) { n.gauges.Store(g) }

// Gauges returns the attached gauge registry, or nil (which is itself a
// valid no-op registry).
func (n *Network) Gauges() *metrics.GaugeSet { return n.gauges.Load() }

// SetHists attaches a histogram registry. As with Tracer/Counters/Gauges,
// every layer above reads it from here, so one attachment threads latency
// histograms through the whole stack. A nil set (the default) disables
// them; recording into a nil histogram is a no-op.
func (n *Network) SetHists(h *metrics.HistogramSet) { n.hists.Store(h) }

// Hists returns the attached histogram registry, or nil (which is itself a
// valid no-op registry).
func (n *Network) Hists() *metrics.HistogramSet { return n.hists.Load() }

// SetSamples attaches a sample-log registry: timestamped observation
// streams the SLO engine queries over sliding windows. As with the other
// registries, layers above read it from here. Nil disables it.
func (n *Network) SetSamples(s *metrics.SampleLogSet) { n.samples.Store(s) }

// Samples returns the attached sample-log registry, or nil (which is
// itself a valid no-op registry).
func (n *Network) Samples() *metrics.SampleLogSet { return n.samples.Load() }

// SetFlightRec attaches the flight recorder so any layer can freeze the
// black box at a trigger point (watchdog abort, orphan record, replica
// crash). Nil (the default) disables triggers.
func (n *Network) SetFlightRec(r *flightrec.Recorder) { n.flight.Store(r) }

// FlightRec returns the attached flight recorder, or nil (which is itself
// a valid no-op recorder).
func (n *Network) FlightRec() *flightrec.Recorder { return n.flight.Load() }

// AddHost registers a host by name. Adding an existing name returns the
// existing host.
func (n *Network) AddHost(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
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
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hosts[name]
}

// Partition severs connectivity between hosts a and b: packets in either
// direction are silently dropped and new dials time out.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[pairKey(a, b)] = true
}

// Heal restores connectivity between hosts a and b.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, pairKey(a, b))
}

// Partitioned reports whether hosts a and b are partitioned.
func (n *Network) Partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.partitions[pairKey(a, b)]
}

// deliverable reports whether a packet sent now from one host would reach
// the other, considering partitions and remote failure state.
func (n *Network) deliverable(from, to string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
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
	counted [len(hostVerbs)]atomic.Pointer[hostCounters]
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
	hc := h.counted[verb].Load()
	if hc == nil || hc.reg != ctrs {
		hc = &hostCounters{
			reg:   ctrs,
			msgs:  ctrs.C(trace.Key("transport", "msgs", hostVerbs[verb], h.name)),
			bytes: ctrs.C(trace.Key("transport", "bytes", hostVerbs[verb], h.name)),
		}
		h.counted[verb].Store(hc) // a racing resolver stores equal handles
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
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	return h.state == hostUp
}

// Crash fails the host with detectable semantics: all its connections are
// closed (peers observe ErrClosed) and its listeners stop accepting.
func (h *Host) Crash() { h.fail(hostCrashed) }

// Hang fails the host silently: connections stay open but all traffic to
// and from it is dropped, so peers observe only lack of progress.
func (h *Host) Hang() {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	if h.state == hostUp {
		h.state = hostHung
	}
}

func (h *Host) fail(to hostState) {
	h.net.mu.Lock()
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
	h.net.mu.Unlock()
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
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	if h.state == hostHung {
		h.state = hostUp
	}
}

// RestoreCrashed boots a crashed host back up with no listeners or
// connections.
func (h *Host) RestoreCrashed() {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	h.state = hostUp
}

// Listen registers a service listener on the host.
func (h *Host) Listen(service string) (*Listener, error) {
	h.net.mu.Lock()
	defer h.net.mu.Unlock()
	if h.state != hostUp {
		return nil, ErrHostDown
	}
	if _, exists := h.listeners[service]; exists {
		return nil, fmt.Errorf("transport: service %q already listening on %s", service, h.name)
	}
	l := &Listener{
		host:    h,
		service: service,
		accept:  vtime.NewChan[*Conn](h.net.sim, "accept:"+h.name+":"+service, 64),
	}
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
	n.mu.Lock()
	if h.state != hostUp {
		n.mu.Unlock()
		return nil, ErrHostDown
	}
	n.mu.Unlock()

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

	n.mu.Lock()
	// Re-check the local host under the same lock that registers the conn
	// pair: the host may have crashed or hung during the SYN sleep, and its
	// sweep already ran. Registering now would attach live connections to a
	// swept host — they would never be closed by a later failure.
	if h.state != hostUp {
		n.mu.Unlock()
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
	n.mu.Unlock()

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
		tr.SpanCtx(ctx.Child("dial"), "transport", "dial", h.name, names.to, names.flow, dialStart,
			trace.Arg{Key: "outcome", Val: "ok"})
	}
	return client, nil
}

// traceFailedDial records the span of a dial that made no connection; its
// context and the address string are built only if a tracer is there to
// take them.
func (h *Host) traceFailedDial(to Addr, ctx trace.Ctx, start time.Duration, outcome string) {
	if tr := h.net.Tracer(); tr.Enabled() {
		tr.SpanCtx(ctx.Child("dial"), "transport", "dial", h.name, to.String(), "", start,
			trace.Arg{Key: "outcome", Val: outcome})
	}
}

// Listener accepts inbound connections for one service.
type Listener struct {
	host    *Host
	service string
	accept  *vtime.Chan[*Conn]
	mu      sync.Mutex
	closed  bool
}

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
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	if deregister {
		l.host.net.mu.Lock()
		if l.host.listeners[l.service] == l {
			delete(l.host.listeners, l.service)
		}
		l.host.net.mu.Unlock()
	}
	l.accept.Close()
}

// pendingMsg is one sent payload on its way to the peer.
type pendingMsg struct {
	payload []byte
	sentAt  time.Duration
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
// An end owns no process. Messages it has sent wait in out, in send order,
// and one kernel task (deliver) walks them: readied by the send that finds
// the pipeline idle, it arms itself for the head's delivery time, and when
// that fires delivers the head and everything behind it that is also due,
// then re-arms for the next head or goes idle: timer for timer the schedule
// of a process looping over "receive from out; sleep until deliverAt; deliver".
type Conn struct {
	net    *Network
	host   *Host  // the local end's host
	estSeq uint64 // establishment order; failure sweeps close in this order
	local  Addr
	remote Addr
	in     vtime.Chan[[]byte]
	peer   *Conn

	// est is the establishment time and server marks the accepting end;
	// with ctx they determine the connection's names (see names), which are
	// built when something first asks for them.
	est    time.Duration
	server bool
	named  atomic.Pointer[connNames]
	// ctx is the base causal context the connection was dialed under;
	// both ends share it. Context-less sends inherit it.
	ctx trace.Ctx
	// stats holds the end's own counters, nil when no registry is attached.
	stats *connStats
	// Cached histogram handles (shared network-wide, not per-connection, to
	// bound cardinality), nil when no registry is attached.
	hBytes, hDelay *metrics.Histogram

	mu sync.Mutex

	// The delivery pipeline, guarded by mu: out[outHead:] is in flight,
	// delivering says the deliver task is armed or queued (so a send only
	// appends), sealed that the FIN is in (or the peer's has arrived) and
	// nothing more may enter. closed, the end's own, shares their word.
	out        []outMsg
	outHead    int
	closed     bool
	delivering bool
	sealed     bool
	deliver    vtime.Task
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
// somebody reads the registry (see trace.Family). Two ends whose names
// render equal — same direction, same dial microsecond — share one line per
// verb there.
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

// String renders the end's directional name, connNames.dir.
func (s *connStats) String() string {
	var sb strings.Builder
	var ts [20]byte
	t := strconv.AppendInt(ts[:0], int64(s.est/time.Microsecond), 10)
	sb.Grow(dirLen(s.local, s.remote, t))
	writeDir(&sb, s.local, "->", s.remote, t)
	return sb.String()
}

// dirLen is the length of what writeDir writes with a two-byte arrow.
func dirLen(from, to Addr, ts []byte) int {
	return len(from.Host) + len(from.Service) + len(to.Host) + len(to.Service) + len(ts) + 5
}

// writeDir writes from<arrow>to@ts.
func writeDir(sb *strings.Builder, from Addr, arrow string, to Addr, ts []byte) {
	sb.WriteString(from.Host)
	sb.WriteByte(':')
	sb.WriteString(from.Service)
	sb.WriteString(arrow)
	sb.WriteString(to.Host)
	sb.WriteByte(':')
	sb.WriteString(to.Service)
	sb.WriteByte('@')
	sb.Write(ts)
}

// connNames are the strings that identify a connection end to tracing and
// deadlock reports. flow identifies the pair (client=>server@establish-time);
// both ends share it, so it correlates trace events across the two hosts.
// dir is this end's directional name (local->remote@t), the scope of its
// counters; to is the remote address, a hop span's "to" argument.
type connNames struct{ flow, dir, to string }

// names builds the end's names on first use, all three in one string. Two
// dials between the same host pair in the same microsecond would collide on
// the flow, so when a dial carries a causal context a short hash of it
// (FNV-1a over request, NUL, span) is appended — the contexts of
// simultaneous dials differ, keeping flows (and the correlation IDs layered
// on them) unique per connection.
func (c *Conn) names() *connNames {
	if n := c.named.Load(); n != nil {
		return n
	}
	client, server := c.local, c.remote
	if c.server {
		client, server = server, client
	}
	var ts [20]byte
	t := strconv.AppendInt(ts[:0], int64(c.est/time.Microsecond), 10)
	var sb strings.Builder
	dl := dirLen(c.local, c.remote, t)
	sb.Grow(2*dl + 9) // dir, flow, "~" and eight hex digits
	writeDir(&sb, c.local, "->", c.remote, t)
	writeDir(&sb, client, "=>", server, t)
	if c.ctx.Valid() {
		h := fnv1a(fnv1a(fnv1a(fnvOffset32, c.ctx.Req), "\x00"), c.ctx.Span)
		var hex [8]byte
		sb.WriteByte('~')
		sb.Write(strconv.AppendUint(hex[:0], uint64(h), 16))
	}
	all := sb.String()
	toAt := len(c.local.Host) + len(c.local.Service) + 3
	n := &connNames{
		flow: all[dl:],
		dir:  all[:dl],
		to:   all[toAt : dl-len(t)-1],
	}
	c.named.Store(n) // a racing builder stores an equal value
	return n
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
type inbox Conn

func (i *inbox) String() string { return "in:" + (*Conn)(i).String() }

// deliverer is a connection end's task body.
type deliverer Conn

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
// to service on host to in one allocation, and both ends' counters, if a
// registry is attached, in another. Caller holds n.mu.
func newConnPair(from, to *Host, service string, ctx trace.Ctx) (client, server *Conn) {
	n := from.net
	pair := new([2]Conn)
	client, server = &pair[0], &pair[1]
	client.host, client.local = from, Addr{from.name, "client"}
	server.host, server.local, server.server = to, Addr{to.name, service}, true
	client.remote, server.remote = server.local, client.local
	fam, hs := n.connFamily.Load(), n.Hists()
	var stats *[2]connStats
	if fam != nil {
		stats = new([2]connStats)
	}
	for i := range pair {
		c := &pair[i]
		n.connSeq++
		c.net, c.estSeq, c.est, c.ctx = n, n.connSeq, n.sim.Now(), ctx
		c.in.Init(n.sim, (*inbox)(c), 4096)
		c.deliver.Init(n.sim, (*deliverer)(c))
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
	client.peer, server.peer = server, client
	return client, server
}

// RunTask is one step of the delivery pipeline: it moves every message that
// is due from this end's out queue into the peer's inbox, preserving FIFO
// order — the head's delivery time gates everything behind it, whatever
// the latency model says now — and arms itself for the next head.
func (d *deliverer) RunTask() {
	c := (*Conn)(d)
	now := c.net.sim.Now()
	for {
		c.mu.Lock()
		if c.outHead == len(c.out) {
			c.out, c.outHead, c.delivering = c.out[:0], 0, false
			c.mu.Unlock()
			return
		}
		if at := c.out[c.outHead].deliverAt; at > now {
			c.mu.Unlock()
			c.deliver.At(at)
			return
		}
		m := c.out[c.outHead]
		c.out[c.outHead] = outMsg{}
		c.outHead++
		c.mu.Unlock()
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
	payload := m.payload
	if !deliverable {
		c.dropped(len(payload), "in-flight", m.ctx)
		return
	}
	if !c.peer.in.TrySend(payload) { // inbox overflow drops, like UDP under DoS
		c.dropped(len(payload), "overflow", m.ctx)
		return
	}
	// Enqueue-to-delivery virtual delay: wire latency plus any FIFO
	// backlog behind earlier messages on this connection.
	c.hDelay.Record(int64(c.net.sim.Now() - m.sentAt))
	c.peer.stats.add(ctrRecv, 1)
	c.peer.stats.add(ctrRecvBytes, int64(len(payload)))
	c.peer.host.count(hostRecv, len(payload))
	if tr := c.net.Tracer(); tr.Enabled() {
		tr.InstantCtx(m.ctx, "transport", "recv", c.remote.Host, c.peer.names().dir, c.Flow(),
			trace.Arg{Key: "bytes", Val: strconv.Itoa(len(payload))})
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
		ctrs.Add(trace.Key("transport", "msgs", "drop", c.local.Host), 1)
		ctrs.Add(trace.Key("transport", "drop", reason, c.local.Host), 1)
	}
	if reason != "conn-closed" {
		c.net.Gauges().G("transport.drops").Add(1)
	}
	if tr := c.net.Tracer(); tr.Enabled() {
		tr.InstantCtx(ctx, "transport", "drop", c.local.Host, c.names().dir, c.Flow(),
			trace.Arg{Key: "bytes", Val: strconv.Itoa(size)},
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
func (c *Conn) Send(payload []byte) error { return c.SendCtx(payload, c.ctx) }

// SendCtx is Send carrying the causal context of this message: the hop
// span and the far end's recv (or drop) event are stamped into that
// request's tree. A zero context falls back to the connection's base
// context.
func (c *Conn) SendCtx(payload []byte, ctx trace.Ctx) error {
	if !ctx.Valid() {
		ctx = c.ctx
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	n := c.net
	n.mu.Lock()
	h := n.hosts[c.local.Host]
	localUp := h != nil && h.state == hostUp
	n.mu.Unlock()
	if !localUp {
		return ErrHostDown
	}
	if !n.deliverable(c.local.Host, c.remote.Host) {
		c.dropped(len(payload), "unreachable", ctx)
		return nil // silently dropped
	}
	n.msgs.Add(1)
	n.bytes.Add(int64(len(payload)))
	c.stats.add(ctrSend, 1)
	c.stats.add(ctrSendBytes, int64(len(payload)))
	c.host.count(hostSend, len(payload))
	c.hBytes.Record(int64(len(payload)))
	now := n.sim.Now()
	oneWay := n.latency.Latency(c.local.Host, c.remote.Host)
	buf := make([]byte, len(payload))
	copy(buf, payload)
	// One hop span per send, covering the wire time to the peer.
	c.traceHop(ctx, len(payload), now, now+oneWay)
	c.mu.Lock()
	ok := c.enqueueLocked(outMsg{pendingMsg: pendingMsg{buf, now, ctx}, deliverAt: now + oneWay})
	c.mu.Unlock()
	if !ok {
		// The delivery queue is saturated (extreme overload) or the send
		// raced with a close. Either way the message is lost here, and the
		// loss must be accounted: everything above already counted it as
		// sent, so silence would leave send-minus-recv unexplained.
		c.dropped(len(buf), "sendq-full", ctx)
	}
	return nil
}

// enqueueLocked places m in the delivery pipeline and, if the pipeline was
// idle, readies the deliver task: it runs when the sender next blocks,
// never inside the send. Returns false when the pipeline is saturated or
// sealed. Caller holds c.mu.
func (c *Conn) enqueueLocked(m outMsg) bool {
	if c.sealed || !m.fin && len(c.out)-c.outHead >= maxInFlight {
		return false
	}
	// A pipeline that never drains is never rewound: rather than regrow, slide
	// the tail over a consumed prefix at least as long (storage stays O(in flight)).
	if h := c.outHead; len(c.out) == cap(c.out) && h >= len(c.out)-h && h > 0 {
		n := copy(c.out, c.out[h:])
		clear(c.out[n:])
		c.out, c.outHead = c.out[:n], 0
	}
	c.out = append(c.out, m)
	if !c.delivering {
		c.delivering = true
		c.deliver.Ready()
	}
	return true
}

// traceHop records one message's hop span; its context, arguments and
// strings are built only if a tracer is there to take them.
func (c *Conn) traceHop(ctx trace.Ctx, size int, start, end time.Duration) {
	if tr := c.net.Tracer(); tr.Enabled() {
		tr.SpanAtCtx(ctx.Child("hop"), "transport", "hop", c.local.Host, c.names().dir, c.Flow(), start, end,
			trace.Arg{Key: "bytes", Val: strconv.Itoa(size)},
			trace.Arg{Key: "to", Val: c.names().to})
	}
}

// Recv blocks until a message arrives. It returns ErrClosed once the
// connection is closed and drained.
func (c *Conn) Recv() ([]byte, error) {
	b, ok := c.in.Recv()
	if !ok {
		return nil, ErrClosed
	}
	return b, nil
}

// RecvTimeout blocks until a message arrives or d of virtual time elapses.
func (c *Conn) RecvTimeout(d time.Duration) ([]byte, error) {
	b, res := c.in.RecvTimeout(d)
	switch res {
	case vtime.RecvOK:
		return b, nil
	case vtime.RecvClosed:
		return nil, ErrClosed
	default:
		return nil, ErrRecvTimeout
	}
}

// TryRecv is Recv for a task step, which cannot wait: it returns
// ErrWouldBlock when no message has arrived and ErrClosed once the
// connection is closed and drained.
func (c *Conn) TryRecv() ([]byte, error) {
	b, res := c.in.RecvTimeout(0)
	return b, tryResult(res)
}

// ReadyOnArrival readies t once, when the next message arrives or the
// connection closes (see vtime.Chan.ReadyOnArrival): the owner of the
// receive side is then a task whose step drains what has arrived with
// TryRecv and registers again, instead of a process parked in Recv.
func (c *Conn) ReadyOnArrival(t *vtime.Task) { c.in.ReadyOnArrival(t) }

// Close closes this end immediately and, after one-way latency, the peer's
// end (the peer drains buffered messages first). Closing twice is a no-op.
func (c *Conn) Close() { c.shut(true) }

// shut closes this end, once. A close of the end's own making (fin) lets
// what it has sent drain to the peer and sends a FIN after it.
func (c *Conn) shut(fin bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	n := c.net
	n.mu.Lock()
	if h := n.hosts[c.local.Host]; h != nil {
		delete(h.conns, c)
	}
	n.mu.Unlock()
	c.in.Close()
	if fin {
		// Exempt from the pipeline's bound: the peer observes ErrClosed even
		// when the close finds the pipeline saturated, never a hang.
		c.enqueueLocked(outMsg{deliverAt: n.sim.Now() + n.latency.Latency(c.local.Host, c.remote.Host), fin: true})
	}
	c.sealed = true
}
