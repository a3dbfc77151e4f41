package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"cogrid/internal/gsi"
	"cogrid/internal/metrics"
	"cogrid/internal/rpc"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// ServiceName is the transport service the controller's barrier endpoint
// listens on.
const ServiceName = "duroc"

// Environment keys passed to application processes.
const (
	EnvContact = "DUROC_CONTACT"
	EnvJob     = "DUROC_JOB"
	EnvSubjob  = "DUROC_SUBJOB"
	// EnvTrace carries the subjob's causal span context (trace.Ctx.String)
	// so application-side barrier check-ins join the request tree that
	// submitted them.
	EnvTrace = "DUROC_TRACE"
)

// Bugs injects known-wrong protocol behavior into a controller. It exists
// solely for the deterministic simulation-testing harness (internal/dst),
// whose self-tests must prove the invariant checker catches a broken
// two-phase commit; production configurations leave it zero.
type Bugs struct {
	// DoubleCommit makes the coordinator reach the commit decision as soon
	// as any participant has voted, without waiting for — or re-checking —
	// the remaining votes: the premature double commit-decision bug of a
	// broken 2PC implementation. Barriers release while non-optional
	// subjobs are still waiting or even failed.
	DoubleCommit bool
}

// ControllerConfig configures a co-allocation controller.
type ControllerConfig struct {
	Credential gsi.Credential
	Registry   *gsi.Registry
	AuthCost   gsi.CostModel // zero value replaced by gsi.DefaultCost
	// ParallelSubmission submits subjobs concurrently instead of the
	// sequential pipeline the paper's DUROC used (Figure 5 shows the
	// GRAM requests "must be submitted sequentially"). Exists for the
	// ablation study of that design choice.
	ParallelSubmission bool
	// CancelTimeout bounds each best-effort cancel RPC issued when a
	// subjob is discarded. A hung or partitioned resource manager must
	// not pin the cancel daemon for the full GRAM call timeout; a short
	// bound converts it into an orphan report instead. Default 30 s.
	CancelTimeout time.Duration
	// OnOrphan, when set, receives every subjob whose LRM-side
	// cancellation could not be confirmed (resource-manager contact lost
	// mid-2PC): the remote job may still hold processors, and someone —
	// typically the broker's reaper — must retry the cancel until the
	// resource manager answers. The callback runs on the cancel daemon
	// and must not block.
	OnOrphan func(Orphan)
	// OnAllocation, when set, is called the moment a subjob obtains an
	// LRM job contact — the earliest point at which remote processors may
	// be held on this job's behalf. A federated broker journals these so
	// a peer can reap the allocation if this controller's process dies
	// mid-2PC. The callback runs on the submission path and must not
	// block.
	OnAllocation func(job, subjob string, rm transport.Addr, contact string)
	// Bugs injects deliberately broken protocol behavior for simulation
	// testing. Leave zero outside internal/dst self-tests.
	Bugs Bugs
}

// Orphan identifies a subjob whose cancel was issued but never
// acknowledged: a committed-but-lost allocation that may leak processors
// at its LRM until re-cancelled.
type Orphan struct {
	// Job and Subjob locate the co-allocation and its subjob label.
	Job    string
	Subjob string
	// RM is the GRAM gatekeeper to re-dial; JobContact the LRM job to
	// cancel there.
	RM         transport.Addr
	JobContact string
	// Reason is the error the failed cancel returned.
	Reason string
	// At is the virtual time the orphan was recorded.
	At time.Duration
	// Ctx is the subjob's causal span context: reap attempts parent their
	// events under the request that leaked the allocation.
	Ctx trace.Ctx
}

// Controller is the co-allocation agent's side of DUROC: it owns the
// barrier service and drives co-allocation jobs.
type Controller struct {
	sim  *vtime.Sim
	host *transport.Host
	cfg  ControllerConfig

	mu      sync.Mutex
	nextJob int
	jobs    map[string]*Job
	order   []*Job // submission order, for deterministic iteration
	server  *rpc.Server
}

// NewController starts a controller on host, listening for barrier
// check-ins.
func NewController(host *transport.Host, cfg ControllerConfig) (*Controller, error) {
	if cfg.AuthCost == (gsi.CostModel{}) {
		cfg.AuthCost = gsi.DefaultCost
	}
	if cfg.CancelTimeout == 0 {
		cfg.CancelTimeout = 30 * time.Second
	}
	c := &Controller{
		sim:  host.Network().Sim(),
		host: host,
		cfg:  cfg,
		jobs: make(map[string]*Job),
	}
	l, err := host.Listen(ServiceName)
	if err != nil {
		return nil, err
	}
	c.server = rpc.ServeTasks(c.sim, l, c)
	return c, nil
}

// Close terminates every live co-allocation and stops the barrier
// service. A closed controller cannot accept further check-ins, so call
// it only when the computations are done with the co-allocator.
func (c *Controller) Close() {
	c.mu.Lock()
	jobs := make([]*Job, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()
	for _, j := range jobs {
		if !j.done.IsSet() {
			j.Abort("controller closed")
		}
	}
	c.server.Close()
}

// Contact returns the barrier service address application processes check
// in to.
func (c *Controller) Contact() transport.Addr {
	return transport.Addr{Host: c.host.Name(), Service: ServiceName}
}

// Sim returns the kernel the controller runs on.
func (c *Controller) Sim() *vtime.Sim { return c.sim }

// Jobs returns every co-allocation this controller has accepted, in
// submission order — the post-run audit surface the simulation-testing
// harness checks protocol invariants against.
func (c *Controller) Jobs() []*Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Job(nil), c.order...)
}

// Submit starts a co-allocation for the request and returns immediately;
// submission, monitoring, and the barrier run in the background. The agent
// drives the job via its Events stream, edit operations, and Commit.
func (c *Controller) Submit(req Request) (*Job, error) {
	return c.SubmitCtx(req, trace.Ctx{})
}

// SubmitCtx is Submit under a causal span context: every subjob's 2PC legs
// (submit, startup-wait, barrier, commit) land in that request's tree. A
// zero context roots a fresh tree at the job id, so directly submitted
// jobs still trace causally.
func (c *Controller) SubmitCtx(req Request, ctx trace.Ctx) (*Job, error) {
	c.mu.Lock()
	c.nextJob++
	id := fmt.Sprintf("%s/coalloc%d", c.host.Name(), c.nextJob)
	c.mu.Unlock()
	if !ctx.Valid() {
		ctx = trace.NewRequest(id)
	}

	j := &Job{
		c:       c,
		id:      id,
		ctx:     ctx,
		byLabel: make(map[string]*subjob),
		queue:   vtime.NewChan[*subjob](c.sim, "duroc-queue:"+id, 4096),
		events:  vtime.NewChan[Event](c.sim, "duroc-events:"+id, 4096),
		signal:  vtime.NewChan[struct{}](c.sim, "duroc-signal:"+id, 1),
		done:    vtime.NewEvent(c.sim, "duroc-done:"+id),
	}
	j.mu.Lock()
	for _, spec := range req.Subjobs {
		if _, err := j.addLocked(spec); err != nil {
			j.mu.Unlock()
			return nil, err
		}
	}
	if len(j.subjobs) == 0 {
		j.mu.Unlock()
		return nil, fmt.Errorf("duroc: empty request")
	}
	j.mu.Unlock()

	c.mu.Lock()
	c.jobs[id] = j
	c.order = append(c.order, j)
	c.mu.Unlock()
	// Outstanding 2PC transactions gauge: one per live co-allocation,
	// decremented when the job finishes (committed-and-done or aborted).
	c.gauges().G("duroc.outstanding@" + c.host.Name()).Add(1)
	c.sim.GoDaemon("duroc-engine:"+id, j.engine)
	return j, nil
}

// SubmitRSL parses a multirequest and submits it.
func (c *Controller) SubmitRSL(src string) (*Job, error) {
	req, err := ParseRequest(src)
	if err != nil {
		return nil, err
	}
	return c.Submit(req)
}

// --- barrier service ---

// ServeCall implements rpc.TaskHandler for the barrier service. The checkin
// call is answered at the commit decision — this is the application-visible
// barrier of the two-phase commit — and until then it waits as a record in
// its subjob, not as a process.
func (c *Controller) ServeCall(call *rpc.Call, method string, body json.RawMessage) {
	if method != "checkin" {
		call.Reply(nil, fmt.Errorf("duroc: unknown method %s", method))
		return
	}
	var args CheckinArgs
	if err := rpc.Decode(body, &args); err != nil {
		call.Reply(nil, err)
		return
	}
	c.checkin(args, call.Ctx, call)
}

// replier is the part of an *rpc.Call the barrier keeps: where the answer
// to a check-in goes, whenever it is decided.
type replier interface {
	Reply(result any, err error)
}

// checkin routes one process's arrival to its co-allocation. ctx is the
// call's span context.
func (c *Controller) checkin(args CheckinArgs, ctx trace.Ctx, call replier) {
	c.mu.Lock()
	j := c.jobs[args.Job]
	c.mu.Unlock()
	if j == nil {
		call.Reply(CheckinReply{Proceed: false, Reason: "unknown co-allocation " + args.Job}, nil)
		return
	}
	j.checkin(args, ctx, call)
}

// HandleNotify implements rpc.TaskHandler; the barrier service has no
// notifications.
func (c *Controller) HandleNotify(sc *rpc.ServerConn, method string, body json.RawMessage) {}

// orphaned records a failed cancel: the trace instant and counter make
// the potential processor leak visible, and the OnOrphan hook hands the
// contact to whoever owns reaping.
func (c *Controller) orphaned(o Orphan) {
	c.tracer().InstantCtx(o.Ctx, "duroc", "orphan", c.host.Name(), o.Job+"/"+o.Subjob, "",
		trace.Arg{Key: "rm", Val: o.RM.String()},
		trace.Arg{Key: "reason", Val: o.Reason})
	c.counters().AddKey("duroc", "orphan", "record", c.host.Name(), 1)
	if c.cfg.OnOrphan != nil {
		c.cfg.OnOrphan(o)
	}
}

// record puts one per-subjob phase in the trace, as a span at ctx's child
// named for the phase: the subjob rows of the Figure 5 timeline are a
// projection of these (trace.IsPhase knows them by name).
func (c *Controller) record(ctx trace.Ctx, actor, phase string, start, end time.Duration) {
	// Per-phase 2PC leg latency distribution (submit, startup-wait,
	// barrier): the histogram counterpart of the Figure 5 timeline spans.
	c.hists().H("core.2pc." + phase).Record(int64(end - start))
	if tr := c.tracer(); tr.Enabled() {
		tr.SpanAtCtx(ctx.Child(trace.Seg(phase)), "duroc", phase, c.host.Name(), actor, "", start, end)
	}
}

// tracer returns the network's tracer (nil-safe no-op when tracing is off).
func (c *Controller) tracer() *trace.Tracer { return c.host.Network().Tracer() }

// counters returns the network's counter registry (nil-safe).
func (c *Controller) counters() *trace.Counters { return c.host.Network().Counters() }

// gauges returns the network's gauge registry (nil-safe).
func (c *Controller) gauges() *metrics.GaugeSet { return c.host.Network().Gauges() }

// hists returns the network's histogram registry (nil-safe).
func (c *Controller) hists() *metrics.HistogramSet { return c.host.Network().Hists() }
