// Package broker implements a multi-tenant co-allocation broker: the
// collective-layer resource broker the paper's architecture names but
// deliberately leaves above DUROC ("some other agent" must pick the
// resources, Section 2.2).
//
// The broker runs as a long-lived simulated process and serves
// co-allocation requests over internal/rpc from many concurrent clients.
// It closes the resource-selection loop the mechanism layer leaves open:
//
//   - a staleness-aware cache of MDS records, refreshed periodically
//     instead of queried per request (cache.go);
//   - candidate selection by published queue-wait forecasts
//     (agent.SelectByForecast);
//   - a bounded admission queue with backpressure — saturated brokers
//     reject with a retry-after hint rather than queueing unboundedly;
//   - per-tenant round-robin fairness, so one flooding client cannot
//     starve the others;
//   - a per-failure-class retry/backoff-and-substitute policy (retry.go)
//     built on the agent strategies, driving each admitted request
//     through DUROC until it commits or the policy gives up.
//
// Every decision is instrumented with trace events (category "broker")
// and layer.object.verb@scope counters, so a load study can read queue
// depth, admission rejects, cache staleness, retries, and end-to-end
// latency out of one run.
package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"cogrid/internal/agent"
	"cogrid/internal/core"
	"cogrid/internal/flightrec"
	"cogrid/internal/gram"
	"cogrid/internal/mds"
	"cogrid/internal/metrics"
	"cogrid/internal/rpc"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// ServiceName is the transport service the broker listens on.
const ServiceName = "broker"

// Defaults for Options zero values.
const (
	DefaultQueueBound      = 16
	DefaultWorkers         = 4
	DefaultCacheMaxAge     = 2 * time.Minute
	DefaultRefreshInterval = time.Minute
	DefaultRefreshOffset   = 5 * time.Second
	DefaultRetryAfter      = 30 * time.Second
	DefaultCommitTimeout   = 30 * time.Minute
	// DefaultReapInterval paces the orphan reaper's retry sweeps. Off
	// the minute boundary so sweeps don't pile onto publisher rounds.
	DefaultReapInterval = 45 * time.Second
)

// watchdogGrace is how far past its commit budget one attempt may run
// before the per-attempt watchdog aborts it: the margin within which the
// substitution agent's own timeout is expected to fire first.
const watchdogGrace = 30 * time.Second

// reapCancelTimeout bounds each reap-sweep cancel RPC, so one still-hung
// resource manager delays, but cannot stall, a sweep.
const reapCancelTimeout = 30 * time.Second

// Options configures a broker.
type Options struct {
	// Directory is the MDS the broker caches records from.
	Directory transport.Addr
	// QueueBound caps requests waiting for a worker; submissions beyond
	// it are rejected with a retry-after hint. Default DefaultQueueBound.
	QueueBound int
	// Workers is the number of co-allocations driven concurrently.
	// Default DefaultWorkers.
	Workers int
	// CacheMaxAge is the staleness bound: a lookup older than this
	// refreshes synchronously. Default DefaultCacheMaxAge.
	CacheMaxAge time.Duration
	// RefreshInterval is the periodic background refresh. Default
	// DefaultRefreshInterval.
	RefreshInterval time.Duration
	// RefreshOffset delays the first background refresh, keeping it off
	// the t=0 instant where every publisher's initial registration is
	// still in flight. Default DefaultRefreshOffset.
	RefreshOffset time.Duration
	// RetryAfter is the hint returned with admission rejections.
	// Default DefaultRetryAfter.
	RetryAfter time.Duration
	// ReapInterval paces the orphan reaper: how often unconfirmed
	// subjob cancellations are retried at their resource managers.
	// Default DefaultReapInterval.
	ReapInterval time.Duration
	// Retry is the per-failure-class policy. Zero value replaced by
	// DefaultRetryPolicy().
	Retry RetryPolicy

	// ReplicaID identifies this broker instance inside a federation; it
	// keys every per-broker counter, gauge, and cache-staleness account,
	// so forwarded requests are attributed to the replica that decided
	// them rather than to whichever process served them. Defaults to the
	// host name, which preserves the single-broker behavior exactly.
	ReplicaID string
	// CandidateFilter, when set, restricts candidate selection to a
	// subset of the cached directory records — a federation replica
	// passes its shard here so it only co-allocates machines it owns.
	// The filter must be deterministic and must not retain the slice.
	CandidateFilter func([]mds.Record) []mds.Record
	// Forward, when set, is offered requests that failed locally with
	// ErrNoCandidates — a federation replica forwards them to the peer
	// whose shard has capacity. Returning a committed reply ends the
	// request; ErrForwardUnavailable resumes the local retry policy;
	// ErrForwardIndeterminate terminates the request without further
	// attempts (a retry after an unacknowledged forward could allocate
	// twice).
	Forward func(req Request, ctx trace.Ctx) (Reply, error)
	// OnTicket, when set, observes ticket lifecycle transitions (open at
	// worker pickup, close at terminal reply) — the federation's journal
	// feed. Must not block.
	OnTicket func(ev TicketEvent)
	// OnOrphan, when set, is called for every orphan recorded (in
	// addition to the broker's own reaper taking it). Must not block.
	OnOrphan func(o core.Orphan)
	// OnReap, when set, is called with the orphan's job/subjob key after
	// the broker's own reaper confirms its cancellation. Must not block.
	OnReap func(key string)
}

// TicketEvent is one ticket lifecycle transition offered to
// Options.OnTicket.
type TicketEvent struct {
	// Kind is "open" (worker picked the ticket up) or "close" (terminal
	// reply produced).
	Kind string
	// Ticket is the replica-unique correlation id (ReplicaID + "#reqN").
	Ticket string
	// Key is the request's idempotency key (empty if the client set none).
	Key    string
	Tenant string
	// JobIDs lists every DUROC job the ticket's attempts created; close
	// only. All their allocations are settled once the ticket closes.
	JobIDs []string
	// JobID is the committed co-allocation; empty on failure or when the
	// outcome came from a forwarded peer (Forwarded true), whose own
	// broker journals the commit.
	JobID     string
	Forwarded bool
	Err       string
}

func (o *Options) fill() {
	if o.QueueBound <= 0 {
		o.QueueBound = DefaultQueueBound
	}
	if o.Workers <= 0 {
		o.Workers = DefaultWorkers
	}
	if o.CacheMaxAge <= 0 {
		o.CacheMaxAge = DefaultCacheMaxAge
	}
	if o.RefreshInterval <= 0 {
		o.RefreshInterval = DefaultRefreshInterval
	}
	if o.RefreshOffset <= 0 {
		o.RefreshOffset = DefaultRefreshOffset
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = DefaultRetryAfter
	}
	if o.ReapInterval <= 0 {
		o.ReapInterval = DefaultReapInterval
	}
	if o.Retry.MaxAttempts == 0 {
		o.Retry = DefaultRetryPolicy()
	}
}

// fillHost defaults ReplicaID to the host name; split from fill so fill
// stays host-independent.
func (o *Options) fillHost(host *transport.Host) {
	if o.ReplicaID == "" {
		o.ReplicaID = host.Name()
	}
}

// Request is one tenant's co-allocation ask: Sites subjobs of
// ProcsPerSite processes each, placed on the best forecast candidates,
// with Spares extra candidates held back as the substitution pool.
type Request struct {
	Tenant       string `json:"tenant"`
	Sites        int    `json:"sites"`
	ProcsPerSite int    `json:"procs_per_site"`
	Executable   string `json:"executable"`
	// Spares is how many extra candidates beyond Sites are selected into
	// the substitution pool.
	Spares int `json:"spares,omitempty"`
	// CommitTimeout bounds each co-allocation attempt. Default
	// DefaultCommitTimeout.
	CommitTimeout time.Duration `json:"commit_timeout,omitempty"`
	// StartupTimeout bounds each subjob's submission-to-check-in (0 =
	// controller default).
	StartupTimeout time.Duration `json:"startup_timeout,omitempty"`
	// MaxTime is the batch wall-time limit per subjob (0 = none).
	MaxTime time.Duration `json:"max_time,omitempty"`
	// Deadline is the absolute virtual time past which the client has
	// abandoned this request (its RPC timeout will have fired); zero
	// means none. The broker threads it through queue wait, attempt
	// budgets, and backoff sleeps: once it passes, the request is marked
	// abandoned instead of burning further attempts into the void.
	// Client.Submit stamps it from its timeout; client and broker share
	// one virtual clock, so no skew correction is needed.
	Deadline time.Duration `json:"deadline,omitempty"`
	// Key is an idempotency key naming the co-allocation across the
	// whole federation: forwarded copies of a request carry the same
	// key, and the at-most-once invariant is "at most one committed
	// co-allocation per key". Empty outside federations.
	Key string `json:"key,omitempty"`
	// Origin is the replica id that first admitted the request; stamped
	// by the forwarding replica so the serving replica attributes cache
	// consultations and counters to the decider. Empty means local.
	Origin string `json:"origin,omitempty"`
	// Hops counts broker-to-broker forwards this request has taken.
	Hops int `json:"hops,omitempty"`
	// ViewAsOf is the fetch time of the directory view the forwarding
	// replica decided on. The serving replica refuses to select from a
	// cache older than this: a forward must never be answered from a
	// view staler than the one that justified it.
	ViewAsOf time.Duration `json:"view_as_of,omitempty"`
}

// Reply reports the outcome of one submission.
type Reply struct {
	// Accepted is false when the broker's admission queue was full; the
	// client should wait RetryAfter and resubmit.
	Accepted   bool          `json:"accepted"`
	RetryAfter time.Duration `json:"retry_after,omitempty"`
	// JobID identifies the committed co-allocation (empty on failure).
	JobID         string `json:"job_id,omitempty"`
	Attempts      int    `json:"attempts,omitempty"`
	Substitutions int    `json:"substitutions,omitempty"`
	WorldSize     int    `json:"world_size,omitempty"`
	// QueueWait is the time spent waiting for a worker; Elapsed the
	// broker-side end-to-end time from admission to outcome.
	QueueWait time.Duration `json:"queue_wait,omitempty"`
	Elapsed   time.Duration `json:"elapsed,omitempty"`
	// Hops is how many broker-to-broker forwards served this request
	// (0 = the broker the client dialed committed it from its own shard).
	Hops int `json:"hops,omitempty"`
	// Error is the terminal failure after retries were exhausted.
	Error string `json:"error,omitempty"`
}

// OK reports whether the request was admitted and committed.
func (r Reply) OK() bool { return r.Accepted && r.Error == "" }

// ticket is one admitted request waiting for, or being driven by, a
// worker.
type ticket struct {
	id         int
	req        Request
	ctx        trace.Ctx // causal span context: adopted from the client, else rooted at corr
	enqueuedAt time.Duration
	done       *vtime.Event
	reply      Reply
}

// Broker is a running broker service.
type Broker struct {
	sim     *vtime.Sim
	host    *transport.Host
	ctrl    *core.Controller
	ctrlCfg core.ControllerConfig // kept for reap-sweep redials
	opts    Options

	cache  *cache
	server *rpc.Server

	mu      sync.Mutex
	queues  map[string][]*ticket // per-tenant FIFO
	ring    []string             // tenant round-robin order (first arrival)
	ringPos int
	queued  int // total tickets waiting for a worker
	nextID  int
	orphans map[string]core.Orphan // unconfirmed cancels awaiting reap

	wake     *vtime.Chan[struct{}] // kicks the dispatcher on enqueue
	ready    *vtime.Chan[struct{}] // a worker announcing it is idle
	dispatch *vtime.Chan[*ticket]  // rendezvous: dispatcher -> idle worker
	reapStop *vtime.Event          // halts the orphan reaper
}

// New starts a broker on host: a DUROC controller for its own use, the
// broker RPC endpoint, the cache refresh daemon, the dispatcher, the
// worker pool, and the orphan reaper. The controller submits with
// ctrlCfg's credential; subjobs whose cancellation the controller cannot
// confirm are handed to the reaper, which retries them until their
// resource managers answer.
func New(host *transport.Host, ctrlCfg core.ControllerConfig, opts Options) (*Broker, error) {
	opts.fill()
	opts.fillHost(host)
	sim := host.Network().Sim()
	b := &Broker{
		sim:      sim,
		host:     host,
		ctrlCfg:  ctrlCfg,
		opts:     opts,
		queues:   make(map[string][]*ticket),
		orphans:  make(map[string]core.Orphan),
		wake:     vtime.NewChan[struct{}](sim, "broker-wake:"+host.Name(), 1),
		ready:    vtime.NewChan[struct{}](sim, "broker-ready:"+host.Name(), 0),
		dispatch: vtime.NewChan[*ticket](sim, "broker-dispatch:"+host.Name(), 0),
		reapStop: vtime.NewEvent(sim, "broker-reap-stop:"+host.Name()),
	}
	ctrlCfg.OnOrphan = b.addOrphan
	if opts.OnOrphan != nil {
		hook := opts.OnOrphan
		ctrlCfg.OnOrphan = func(o core.Orphan) {
			b.addOrphan(o)
			hook(o)
		}
	}
	ctrl, err := core.NewController(host, ctrlCfg)
	if err != nil {
		return nil, err
	}
	b.ctrl = ctrl
	l, err := host.Listen(ServiceName)
	if err != nil {
		// Tear the controller (and its barrier listener) back down: a
		// half-constructed broker must not leak it.
		ctrl.Close()
		return nil, err
	}
	// The cache starts its refresh daemon immediately, so it is created
	// only after every fallible construction step has passed.
	b.cache = newCache(host, opts.ReplicaID, opts.Directory, opts.CacheMaxAge, opts.RefreshInterval, opts.RefreshOffset)
	b.server = rpc.Serve(sim, l, rpc.HandlerFuncs{Call: b.handleCall}, nil)
	sim.GoDaemon("broker-dispatch:"+host.Name(), b.dispatcher)
	for i := 0; i < opts.Workers; i++ {
		sim.GoDaemon(fmt.Sprintf("broker-worker%d:%s", i, host.Name()), b.worker)
	}
	sim.GoDaemon("broker-reaper:"+host.Name(), b.reaper)
	return b, nil
}

// Contact returns the broker's service address.
func (b *Broker) Contact() transport.Addr {
	return transport.Addr{Host: b.host.Name(), Service: ServiceName}
}

// Controller exposes the broker's DUROC controller (for tests).
func (b *Broker) Controller() *core.Controller { return b.ctrl }

// QueueDepth returns the number of requests waiting for a worker.
func (b *Broker) QueueDepth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queued
}

// Close stops accepting connections and halts the cache refresh and
// orphan-reap daemons. In-flight requests run to completion. The DUROC
// controller (and its barrier listener) deliberately stays up: committed
// computations outlive their broker replies and still need the barrier
// endpoint and cancel paths — the construction-time listener leak lived
// in New's error path, which tears the controller down itself. Orphans
// still pending when Close is called are abandoned; drain them first via
// OrphansPending if that matters.
func (b *Broker) Close() {
	b.server.Close()
	b.cache.stopRefresh()
	b.reapStop.Set()
}

// OrphansPending reports how many unconfirmed cancellations await a
// successful reap. Zero after quiescence means no subjob leaked.
func (b *Broker) OrphansPending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.orphans)
}

func (b *Broker) tracer() *trace.Tracer          { return b.host.Network().Tracer() }
func (b *Broker) counters() *trace.Counters      { return b.host.Network().Counters() }
func (b *Broker) gauges() *metrics.GaugeSet      { return b.host.Network().Gauges() }
func (b *Broker) hists() *metrics.HistogramSet   { return b.host.Network().Hists() }
func (b *Broker) samples() *metrics.SampleLogSet { return b.host.Network().Samples() }
func (b *Broker) flight() *flightrec.Recorder    { return b.host.Network().FlightRec() }

// count increments broker.object.verb@<replica-id> (the host name
// outside federations).
func (b *Broker) count(object, verb string, delta int64) {
	b.counters().Add(trace.Key("broker", object, verb, b.opts.ReplicaID), delta)
}

func (b *Broker) handleCall(sc *rpc.ServerConn, method string, body json.RawMessage) (any, error) {
	switch method {
	case "submit":
		var req Request
		if err := rpc.Decode(body, &req); err != nil {
			return nil, err
		}
		return b.submit(req, sc.Ctx)
	case "stats":
		return b.stats(), nil
	}
	return nil, fmt.Errorf("broker: unknown method %s", method)
}

// Stats is a point-in-time snapshot served to clients.
type Stats struct {
	QueueDepth int           `json:"queue_depth"`
	QueueBound int           `json:"queue_bound"`
	Workers    int           `json:"workers"`
	Tenants    int           `json:"tenants"`
	CacheAge   time.Duration `json:"cache_age"`
	CacheSize  int           `json:"cache_size"`
}

func (b *Broker) stats() Stats {
	records, age := b.cache.peek()
	b.mu.Lock()
	defer b.mu.Unlock()
	return Stats{
		QueueDepth: b.queued,
		QueueBound: b.opts.QueueBound,
		Workers:    b.opts.Workers,
		Tenants:    len(b.ring),
		CacheAge:   age,
		CacheSize:  len(records),
	}
}

// submit is the blocking server side of one request: admission control,
// then wait for the worker-driven outcome. It runs in the per-connection
// RPC loop, so each connection has at most one request in flight — the
// many-clients concurrency lives in the many connections. ctx is the
// client's propagated span context; when absent a fresh request tree is
// rooted at the ticket's correlation id, so every admitted request has a
// causal tree either way.
func (b *Broker) submit(req Request, ctx trace.Ctx) (Reply, error) {
	if req.Sites <= 0 || req.ProcsPerSite <= 0 {
		return Reply{}, fmt.Errorf("broker: need sites > 0 and procs_per_site > 0")
	}
	if req.Executable == "" {
		return Reply{}, fmt.Errorf("broker: missing executable")
	}
	if req.Tenant == "" {
		req.Tenant = "anonymous"
	}
	if req.CommitTimeout <= 0 {
		req.CommitTimeout = DefaultCommitTimeout
	}

	b.mu.Lock()
	if b.queued >= b.opts.QueueBound {
		depth := b.queued
		b.mu.Unlock()
		b.count("queue", "reject", 1)
		b.counters().Add(trace.Key("broker", "tenant", "reject", req.Tenant), 1)
		b.tracer().InstantCtx(ctx, "broker", "reject", b.host.Name(), req.Tenant, "",
			trace.Arg{Key: "depth", Val: strconv.Itoa(depth)},
			trace.Arg{Key: "retry_after", Val: b.opts.RetryAfter.String()})
		return Reply{Accepted: false, RetryAfter: b.opts.RetryAfter}, nil
	}
	b.nextID++
	t := &ticket{
		id:         b.nextID,
		req:        req,
		ctx:        ctx,
		enqueuedAt: b.sim.Now(),
		done:       vtime.NewEvent(b.sim, fmt.Sprintf("broker-ticket:%d", b.nextID)),
	}
	if !t.ctx.Valid() {
		t.ctx = trace.NewRequest(b.corr(t))
	}
	if _, known := b.queues[req.Tenant]; !known {
		b.ring = append(b.ring, req.Tenant)
	}
	b.queues[req.Tenant] = append(b.queues[req.Tenant], t)
	b.queued++
	depth := b.queued
	b.mu.Unlock()

	b.count("queue", "enqueue", 1)
	b.gauges().G("broker.queue_depth@" + b.opts.ReplicaID).Add(1)
	b.tracer().InstantCtx(t.ctx, "broker", "enqueue", b.host.Name(), req.Tenant, b.corr(t),
		trace.Arg{Key: "depth", Val: strconv.Itoa(depth)})
	b.wake.TrySend(struct{}{})

	t.done.Wait()
	return t.reply, nil
}

// corr is the correlation ID tying one ticket's queue-wait, attempts, and
// request span together.
func (b *Broker) corr(t *ticket) string { return b.opts.ReplicaID + "#req" + strconv.Itoa(t.id) }

// dispatcher pops tickets in per-tenant round-robin order and hands each
// to an idle worker. A ticket leaves the queue only once a worker has
// announced readiness, so QueueDepth and the admission bound account for
// every waiting request exactly.
func (b *Broker) dispatcher() {
	for {
		b.ready.Recv()
		for {
			t := b.pop()
			if t != nil {
				b.dispatch.Send(t)
				break
			}
			b.wake.Recv()
		}
	}
}

// pop removes the next ticket by round-robin across tenants with waiting
// requests. The ring preserves first-arrival tenant order, making the
// schedule deterministic.
func (b *Broker) pop() *ticket {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.ring)
	for i := 0; i < n; i++ {
		tenant := b.ring[(b.ringPos+i)%n]
		q := b.queues[tenant]
		if len(q) == 0 {
			continue
		}
		t := q[0]
		b.queues[tenant] = q[1:]
		b.queued--
		b.ringPos = (b.ringPos + i + 1) % n
		b.gauges().G("broker.queue_depth@" + b.opts.ReplicaID).Add(-1)
		return t
	}
	return nil
}

// worker drives admitted requests through DUROC, one at a time,
// announcing idleness to the dispatcher between requests.
func (b *Broker) worker() {
	for {
		b.ready.Send(struct{}{})
		t, ok := b.dispatch.Recv()
		if !ok {
			return
		}
		b.serve(t)
	}
}

// serve runs one ticket to a terminal reply: select candidates from the
// cache, drive the co-allocation with substitution, and on failure apply
// the per-class retry policy. The request's deadline is checked before
// every attempt and every backoff sleep: past it the client's RPC
// timeout has already fired, so further work would serve nobody — the
// request is marked abandoned instead.
func (b *Broker) serve(t *ticket) {
	req := t.req
	dequeuedAt := b.sim.Now()
	// Admission wait: enqueue-to-worker-pickup latency under fair queueing.
	b.hists().H("broker.admission.wait").Record(int64(dequeuedAt - t.enqueuedAt))
	b.count("queue", "dequeue", 1)
	b.tracer().SpanAtCtx(t.ctx.Child("queue-wait"), "broker", "queue-wait", b.host.Name(), req.Tenant, b.corr(t),
		t.enqueuedAt, dequeuedAt)

	var reply Reply
	reply.Accepted = true
	reply.QueueWait = dequeuedAt - t.enqueuedAt

	if b.opts.OnTicket != nil {
		b.opts.OnTicket(TicketEvent{Kind: "open", Ticket: b.corr(t), Key: req.Key, Tenant: req.Tenant})
	}

	deadline := req.Deadline
	expired := func() bool { return deadline > 0 && b.sim.Now() >= deadline }

	policy := b.opts.Retry
	abandoned := false
	forwarded := false
	var jobIDs []string
	for attempt := 1; attempt <= policy.MaxAttempts; attempt++ {
		if expired() {
			// Queue wait or the previous attempt consumed the budget.
			abandoned = true
			break
		}
		reply.Attempts = attempt
		res, err := b.attempt(t, attempt, deadline)
		b.countFaults(res.Job)
		if res.Job != nil {
			jobIDs = append(jobIDs, res.Job.ID())
		}
		if err == nil {
			reply.JobID = res.Job.ID()
			reply.Substitutions += res.Substitutions
			reply.WorldSize = res.Config.WorldSize
			break
		}
		class := Classify(err)
		if class == ClassNoCandidates && b.opts.Forward != nil {
			// The local shard cannot host this request; offer it to a
			// peer before burning local retries.
			fwd, ferr := b.opts.Forward(req, t.ctx)
			if ferr == nil && fwd.OK() {
				reply.JobID = fwd.JobID
				reply.Substitutions += fwd.Substitutions
				reply.WorldSize = fwd.WorldSize
				reply.Hops = fwd.Hops + 1
				forwarded = true
				break
			}
			if errors.Is(ferr, ErrForwardIndeterminate) {
				// The peer may have committed the co-allocation but the
				// acknowledgment was lost. Another attempt — local or
				// forwarded — could allocate the same key twice, so the
				// request terminates here; at-most-once beats retry.
				reply.Error = ferr.Error()
				b.count("fail", "forward-indeterminate", 1)
				break
			}
			// ErrForwardUnavailable or a definitive peer failure: fall
			// through to the local retry policy.
		}
		b.count("retry", string(class), 1)
		decision := policy.For(class)
		if !decision.Retry || attempt == policy.MaxAttempts {
			reply.Error = err.Error()
			b.count("fail", string(class), 1)
			break
		}
		backoff := policy.BackoffFor(class, attempt)
		if deadline > 0 && b.sim.Now()+backoff >= deadline {
			// The deadline lands inside the backoff sleep: the next
			// attempt could only start after the client has given up.
			abandoned = true
			break
		}
		b.tracer().InstantCtx(t.ctx, "broker", "backoff", b.host.Name(), req.Tenant, b.corr(t),
			trace.Arg{Key: "class", Val: string(class)},
			trace.Arg{Key: "backoff", Val: backoff.String()})
		b.sim.Sleep(backoff)
		if class == ClassNoCandidates {
			// A fresh-but-thin cache would fail identically; force a
			// refresh so the next attempt sees newly published records.
			b.cache.refresh()
		}
	}
	if abandoned {
		reply.Error = fmt.Sprintf("broker: request abandoned at deadline after %d attempts", reply.Attempts)
		b.tracer().InstantCtx(t.ctx, "broker", "abandon", b.host.Name(), req.Tenant, b.corr(t),
			trace.Arg{Key: "attempts", Val: strconv.Itoa(reply.Attempts)})
	}

	reply.Elapsed = b.sim.Now() - t.enqueuedAt
	// End-to-end broker-side request latency, all outcomes: the cumulative
	// histogram for end-of-run quantiles, and the timestamped sample log
	// the SLO engine burn-rates over sliding windows.
	b.hists().H("broker.request.latency").Record(int64(reply.Elapsed))
	b.samples().L("broker.request.latency@" + b.opts.ReplicaID).Record(int64(reply.Elapsed))
	outcome := "ok"
	switch {
	case abandoned:
		outcome = "abandoned"
	case reply.Error != "":
		outcome = "fail"
	}
	b.count("request", outcome, 1)
	b.counters().Add(trace.Key("broker", "tenant", outcome, req.Tenant), 1)
	b.tracer().SpanAtCtx(t.ctx, "broker", "request", b.host.Name(), req.Tenant, b.corr(t),
		t.enqueuedAt, b.sim.Now(),
		trace.Arg{Key: "outcome", Val: outcome},
		trace.Arg{Key: "attempts", Val: strconv.Itoa(reply.Attempts)})
	if b.opts.OnTicket != nil {
		ev := TicketEvent{
			Kind:      "close",
			Ticket:    b.corr(t),
			Key:       req.Key,
			Tenant:    req.Tenant,
			JobIDs:    jobIDs,
			Forwarded: forwarded,
			Err:       reply.Error,
		}
		if !forwarded {
			ev.JobID = reply.JobID
		}
		b.opts.OnTicket(ev)
	}
	t.reply = reply
	t.done.Set()
}

// countFaults rolls each failed subjob's reason into a per-fault-class
// counter (broker.fault.<class>), so a chaos run can read which failure
// modes the serve path absorbed — substitutions included, which the
// attempt's terminal error alone would hide.
func (b *Broker) countFaults(job *core.Job) {
	if job == nil {
		return
	}
	for _, ev := range job.History() {
		if ev.Kind == core.EvSubjobFailed {
			b.count("fault", FaultClass(ev.Reason), 1)
		}
	}
}

// attempt performs one candidate selection and one substitution-strategy
// co-allocation for t, with its commit budget trimmed to the request
// deadline and a watchdog that aborts the attempt if it wedges past that
// budget (a lost resource manager mid-2PC shows up only as lack of
// progress; the abort discards the subjobs, whose unconfirmed cancels
// then flow to the orphan reaper).
func (b *Broker) attempt(t *ticket, attempt int, deadline time.Duration) (agent.Result, error) {
	req := t.req
	start := b.sim.Now()
	origin := req.Origin
	if origin == "" {
		origin = b.opts.ReplicaID
	}
	records := b.cache.get(origin, req.ViewAsOf)
	if b.opts.CandidateFilter != nil {
		records = b.opts.CandidateFilter(records)
	}
	want := req.Sites + req.Spares
	// Selection trusts the published forecasts exactly (sigma 0): broker
	// determinism must not depend on concurrent draw order from the
	// kernel's shared RNG.
	candidates := agent.SelectByForecast(records, req.ProcsPerSite, want, 0, nil)
	attemptCtx := t.ctx.Child("attempt" + strconv.Itoa(attempt))
	finish := func(outcome string) {
		b.hists().H("broker.attempt.latency").Record(int64(b.sim.Now() - start))
		b.tracer().SpanCtx(attemptCtx, "broker", "attempt", b.host.Name(), req.Tenant, b.corr(t), start,
			trace.Arg{Key: "n", Val: strconv.Itoa(attempt)},
			trace.Arg{Key: "outcome", Val: outcome})
	}
	if len(candidates) < req.Sites {
		finish(string(ClassNoCandidates))
		return agent.Result{}, fmt.Errorf("%w: %d of %d sites available",
			ErrNoCandidates, len(candidates), req.Sites)
	}
	creq := core.Request{}
	for i := 0; i < req.Sites; i++ {
		contact, err := transport.ParseAddr(candidates[i].Contact)
		if err != nil {
			finish("bad-contact")
			return agent.Result{}, fmt.Errorf("broker: record %q: %v", candidates[i].Name, err)
		}
		creq.Subjobs = append(creq.Subjobs, core.SubjobSpec{
			Label:          fmt.Sprintf("req%d.%d/%s", t.id, attempt, candidates[i].Name),
			Contact:        contact,
			Count:          req.ProcsPerSite,
			Executable:     req.Executable,
			Type:           core.Interactive,
			MaxTime:        req.MaxTime,
			StartupTimeout: req.StartupTimeout,
		})
	}
	var pool []transport.Addr
	for _, rec := range candidates[req.Sites:] {
		contact, err := transport.ParseAddr(rec.Contact)
		if err != nil {
			continue
		}
		pool = append(pool, contact)
	}
	budget := req.CommitTimeout
	if deadline > 0 {
		if remaining := deadline - b.sim.Now(); remaining < budget {
			budget = remaining
		}
	}
	var watchdog *vtime.Timer
	res, err := agent.WithSubstitution(b.ctrl, creq, agent.SubstituteOptions{
		Pool:          pool,
		CommitTimeout: budget,
		Ctx:           attemptCtx,
		OnJob: func(job *core.Job) {
			watchdog = b.sim.AfterFunc(budget+watchdogGrace, func() {
				if attemptSettled(job) {
					return
				}
				b.count("watchdog", "abort", 1)
				b.tracer().InstantCtx(attemptCtx, "broker", "watchdog-abort", b.host.Name(), req.Tenant, b.corr(t),
					trace.Arg{Key: "budget", Val: (budget + watchdogGrace).String()})
				// A hung 2PC attempt is exactly the moment the black box
				// exists for: freeze the recent past before aborting.
				b.flight().Trigger("watchdog-abort", b.opts.ReplicaID+" "+b.corr(t))
				job.Abort("broker: attempt watchdog fired after " + (budget + watchdogGrace).String())
			})
		},
	})
	if watchdog != nil {
		watchdog.Stop()
	}
	if err != nil {
		finish(string(Classify(err)))
		return res, err
	}
	finish("ok")
	return res, nil
}

// attemptSettled reports whether the attempt's job already reached a
// decision — committed (a released subjob exists) or terminated — in
// which case a late watchdog firing must not abort a healthy
// computation.
func attemptSettled(job *core.Job) bool {
	if job.Done().IsSet() {
		return true
	}
	for _, info := range job.Status() {
		if info.Status == core.SJReleased {
			return true
		}
	}
	return false
}

// addOrphan receives a subjob whose cancel the controller could not
// confirm and queues it for the reaper.
func (b *Broker) addOrphan(o core.Orphan) {
	key := o.Job + "/" + o.Subjob
	b.mu.Lock()
	_, known := b.orphans[key]
	b.orphans[key] = o
	b.mu.Unlock()
	if !known {
		// Gauge tracks distinct unreaped orphans; a re-recorded key (the
		// same subjob orphaned again before its reap) must not double-count.
		b.gauges().G("broker.orphans@" + b.opts.ReplicaID).Add(1)
		b.flight().Trigger("orphan", b.opts.ReplicaID+" "+key)
	}
	b.count("orphan", "record", 1)
	// The event args must not depend on the orphan set's size: concurrent
	// cancel daemons record at the same instant in nondeterministic order,
	// and a running count would leak that order into the trace.
	b.tracer().InstantCtx(o.Ctx, "broker", "orphan", b.host.Name(), key, "",
		trace.Arg{Key: "rm", Val: o.RM.String()},
		trace.Arg{Key: "reason", Val: o.Reason})
}

// reaper retries the cancellation of every orphaned subjob until its
// resource manager confirms — the guarantee that a committed-but-lost
// subjob stops holding processors as soon as the fault that hid it
// heals.
func (b *Broker) reaper() {
	for {
		if b.reapStop.WaitTimeout(b.opts.ReapInterval) {
			return
		}
		b.reapPending()
	}
}

// reapPending sweeps the orphan set once. Orphans are recorded by
// concurrent cancel daemons in nondeterministic order, so the sweep
// walks a sorted snapshot to keep reap timing (and the trace) identical
// across same-seed runs.
func (b *Broker) reapPending() {
	b.mu.Lock()
	keys := make([]string, 0, len(b.orphans))
	for k := range b.orphans {
		keys = append(keys, k)
	}
	b.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		b.mu.Lock()
		o, ok := b.orphans[k]
		b.mu.Unlock()
		if !ok || !b.reapOne(k, o) {
			continue
		}
		b.mu.Lock()
		delete(b.orphans, k)
		b.mu.Unlock()
		b.gauges().G("broker.orphans@" + b.opts.ReplicaID).Add(-1)
		b.count("orphan", "reaped", 1)
		if b.opts.OnReap != nil {
			b.opts.OnReap(k)
		}
	}
}

// reapOne re-dials the orphan's resource manager and re-issues the
// cancel. Cancellation is idempotent at the LRM — cancelling a job that
// already finished, failed, or was cancelled by the earlier attempt
// whose acknowledgment was lost is a no-op — so confirmation here is
// always safe.
func (b *Broker) reapOne(key string, o core.Orphan) bool {
	start := b.sim.Now()
	// Reap traffic parents under the leaked subjob's own span context, so
	// an orphaned request's tree shows its cleanup too.
	ctx := o.Ctx.Child("reap")
	client, err := gram.Dial(b.host, o.RM, gram.ClientConfig{
		Credential: b.ctrlCfg.Credential,
		Registry:   b.ctrlCfg.Registry,
		AuthCost:   b.ctrlCfg.AuthCost,
		Ctx:        ctx,
	})
	if err != nil {
		b.count("reap", "retry", 1)
		return false
	}
	defer client.Close()
	if err := client.CancelTimeout(o.JobContact, reapCancelTimeout); err != nil {
		b.count("reap", "retry", 1)
		return false
	}
	b.tracer().SpanAtCtx(ctx, "broker", "reap", b.host.Name(), key, "", start, b.sim.Now(),
		trace.Arg{Key: "rm", Val: o.RM.String()})
	return true
}

// CacheView returns the cached directory records and their fetch time
// without triggering a refresh — what a federation forwarder stamps into
// Request.ViewAsOf so the serving peer never answers from a staler view.
func (b *Broker) CacheView() ([]mds.Record, time.Duration) {
	records, fetchedAt, _ := b.cache.view()
	return records, fetchedAt
}

// ReplicaID reports the identity this broker's decisions are keyed by.
func (b *Broker) ReplicaID() string { return b.opts.ReplicaID }
