// Package grab implements the Globus Resource Allocation Broker: the
// atomic-transaction co-allocator that preceded DUROC (Section 4.1).
//
// GRAB's strategy is all-or-nothing: the resource set is fixed when the
// request is issued; the allocation succeeds only if every subjob starts
// and checks in, and any failure or timeout aborts and releases
// everything. The paper found this inadequate in practice — a single slow
// or failed machine forces a full restart, at tremendous cost when
// application startup takes fifteen minutes — which motivated DUROC's
// interactive transactions. GRAB is retained as the experimental baseline.
//
// GRAB is wire-compatible with the DUROC application runtime: processes
// attach with core.Attach and call Barrier exactly as under DUROC; only
// the broker's policy differs.
package grab

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/gram"
	"cogrid/internal/gsi"
	"cogrid/internal/lrm"
	"cogrid/internal/rpc"
	"cogrid/internal/rsl"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// ServiceName is the transport service the broker's barrier listens on.
const ServiceName = "grab"

// Errors returned by Allocate.
var (
	ErrAllocationFailed = errors.New("grab: atomic allocation failed")
	ErrTimeout          = errors.New("grab: allocation timed out")
)

// Config configures a broker.
type Config struct {
	Credential gsi.Credential
	Registry   *gsi.Registry
	AuthCost   gsi.CostModel // zero value replaced by gsi.DefaultCost
	// StartupTimeout bounds each subjob's submission-to-check-in time;
	// default 10 minutes. On expiry the whole allocation aborts.
	StartupTimeout time.Duration
}

// Broker is an atomic-transaction co-allocator.
type Broker struct {
	sim  *vtime.Sim
	host *transport.Host
	cfg  Config

	mu      sync.Mutex
	nextID  int
	current map[string]*allocation
}

// allocation tracks one in-flight atomic transaction.
type allocation struct {
	id       string
	specs    []core.SubjobSpec
	checkins map[string]map[int]*waiter // subjob label -> rank -> waiter
	arrived  int
	total    int
	failed   bool
	reason   string
	released bool
	config   core.Config
	progress *vtime.Chan[struct{}]
}

// waiter is one process waiting in the barrier: the call to answer, and the
// task that answers it once the transaction is decided.
type waiter struct {
	addr   string
	call   *rpc.Call
	reply  core.CheckinReply
	answer vtime.Task
}

// decide records the waiter's answer and readies its sending — in the
// run-queue slot where a process parked in the barrier would have been
// woken, never from inside the caller.
func (w *waiter) decide(reply core.CheckinReply) {
	w.reply = reply
	w.answer.Ready()
}

// RunTask sends the waiter's reply.
func (w *waiter) RunTask() { w.call.Reply(w.reply, nil) }

// NewBroker starts a broker on host.
func NewBroker(host *transport.Host, cfg Config) (*Broker, error) {
	if cfg.AuthCost == (gsi.CostModel{}) {
		cfg.AuthCost = gsi.DefaultCost
	}
	if cfg.StartupTimeout == 0 {
		cfg.StartupTimeout = 10 * time.Minute
	}
	b := &Broker{
		sim:     host.Network().Sim(),
		host:    host,
		cfg:     cfg,
		current: make(map[string]*allocation),
	}
	l, err := host.Listen(ServiceName)
	if err != nil {
		return nil, err
	}
	rpc.ServeTasks(b.sim, l, b)
	return b, nil
}

// Contact returns the broker's barrier address.
func (b *Broker) Contact() transport.Addr {
	return transport.Addr{Host: b.host.Name(), Service: ServiceName}
}

// Allocation is a successfully committed atomic co-allocation.
type Allocation struct {
	Config  core.Config
	broker  *Broker
	clients []*gram.Client
	jobs    []string
}

// Kill cancels every subjob.
func (a *Allocation) Kill() {
	for i, c := range a.clients {
		c.Cancel(a.jobs[i])
	}
}

// Close releases the broker-side connections without killing the jobs.
func (a *Allocation) Close() {
	for _, c := range a.clients {
		c.Close()
	}
}

// Allocate runs one atomic transaction: submit every subjob, wait for
// every process to check in, release the barrier, and return the
// configuration. Any submission failure, resource failure, application
// startup failure, or timeout aborts the whole transaction, cancelling
// everything that was acquired. Subjob Type fields are ignored: under the
// atomic strategy every resource is effectively required.
func (b *Broker) Allocate(req core.Request) (*Allocation, error) {
	if len(req.Subjobs) == 0 {
		return nil, fmt.Errorf("grab: empty request")
	}
	b.mu.Lock()
	b.nextID++
	id := fmt.Sprintf("%s/grab%d", b.host.Name(), b.nextID)
	alloc := &allocation{
		id:       id,
		checkins: make(map[string]map[int]*waiter),
		progress: vtime.NewChan[struct{}](b.sim, "grab-progress:"+id, 1),
	}
	for i := range req.Subjobs {
		spec := req.Subjobs[i]
		if spec.Label == "" {
			spec.Label = "sj" + strconv.Itoa(i)
		}
		if _, dup := alloc.checkins[spec.Label]; dup {
			b.mu.Unlock()
			return nil, fmt.Errorf("grab: duplicate subjob label %q", spec.Label)
		}
		alloc.specs = append(alloc.specs, spec)
		alloc.checkins[spec.Label] = make(map[int]*waiter)
		alloc.total += spec.Count
	}
	b.current[id] = alloc
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(b.current, id)
		b.mu.Unlock()
	}()

	result := &Allocation{broker: b}
	abort := func(reason string) {
		b.mu.Lock()
		alloc.failed = true
		if alloc.reason == "" {
			alloc.reason = reason
		}
		// Request order, then rank order: the answers must not leave in map
		// order. A waiter is answered once, so it leaves the table.
		for _, spec := range alloc.specs {
			waiting := alloc.checkins[spec.Label]
			ranks := make([]int, 0, len(waiting))
			for r := range waiting {
				ranks = append(ranks, r)
			}
			sort.Ints(ranks)
			for _, r := range ranks {
				waiting[r].decide(core.CheckinReply{Proceed: false, Reason: reason})
			}
			clear(waiting)
		}
		b.mu.Unlock()
		for i, c := range result.clients {
			c.Cancel(result.jobs[i])
			c.Close()
		}
	}

	// Phase one: submit every subjob, sequentially, as DUROC does.
	deadline := b.sim.Now() + b.cfg.StartupTimeout
	for _, spec := range alloc.specs {
		client, err := gram.Dial(b.host, spec.Contact, gram.ClientConfig{
			Credential: b.cfg.Credential,
			Registry:   b.cfg.Registry,
			AuthCost:   b.cfg.AuthCost,
		})
		if err != nil {
			abort(err.Error())
			return nil, fmt.Errorf("%w: subjob %q: %v", ErrAllocationFailed, spec.Label, err)
		}
		contact, err := client.Submit(b.subjobRSL(alloc.id, spec))
		if err != nil {
			client.Close()
			abort(err.Error())
			return nil, fmt.Errorf("%w: subjob %q: %v", ErrAllocationFailed, spec.Label, err)
		}
		result.clients = append(result.clients, client)
		result.jobs = append(result.jobs, contact)
		label := spec.Label
		b.sim.GoDaemon("grab-monitor:"+id+"/"+label, func() {
			b.monitor(alloc, label, client)
		})
	}

	// Phase two: wait for every process, then commit.
	for {
		b.mu.Lock()
		failed, reason := alloc.failed, alloc.reason
		complete := alloc.arrived == alloc.total
		b.mu.Unlock()
		if failed {
			abort(reason)
			return nil, fmt.Errorf("%w: %s", ErrAllocationFailed, reason)
		}
		if complete {
			break
		}
		remaining := deadline - b.sim.Now()
		if remaining <= 0 {
			abort("startup timeout")
			return nil, fmt.Errorf("%w after %v", ErrTimeout, b.cfg.StartupTimeout)
		}
		alloc.progress.RecvTimeout(remaining)
	}

	result.Config = b.release(alloc)
	return result, nil
}

// subjobRSL builds the GRAM request; the environment uses the DUROC keys
// so the same application runtime works under either co-allocator.
func (b *Broker) subjobRSL(id string, spec core.SubjobSpec) string {
	node := rsl.Conj(
		[2]string{"executable", spec.Executable},
		[2]string{"count", strconv.Itoa(spec.Count)},
	)
	if spec.MaxTime > 0 {
		node.Children = append(node.Children, &rsl.Relation{
			Attribute: "maxTime", Op: rsl.OpEq,
			Value: rsl.Literal(strconv.Itoa(int(spec.MaxTime / time.Minute))),
		})
	}
	node.Children = append(node.Children, &rsl.Relation{
		Attribute: "environment", Op: rsl.OpEq,
		Value: rsl.Seq{
			rsl.Literal(core.EnvContact), rsl.Literal(b.Contact().String()),
			rsl.Literal(core.EnvJob), rsl.Literal(id),
			rsl.Literal(core.EnvSubjob), rsl.Literal(spec.Label),
		},
	})
	return node.String()
}

// monitor watches one subjob's GRAM callbacks for failure.
func (b *Broker) monitor(alloc *allocation, label string, client *gram.Client) {
	for {
		ev, ok := client.Events().Recv()
		if !ok {
			b.fail(alloc, label, "lost contact with resource manager")
			return
		}
		switch ev.State {
		case lrm.StateDone:
			b.mu.Lock()
			released := alloc.released
			b.mu.Unlock()
			if !released {
				b.fail(alloc, label, "processes exited before the barrier")
			}
			return
		case lrm.StateFailed:
			b.fail(alloc, label, "resource manager reported failure: "+ev.Reason)
			return
		}
	}
}

func (b *Broker) fail(alloc *allocation, label, reason string) {
	b.mu.Lock()
	already := alloc.failed || alloc.released
	if !already {
		alloc.failed = true
		alloc.reason = fmt.Sprintf("subjob %q: %s", label, reason)
	}
	b.mu.Unlock()
	alloc.progress.TrySend(struct{}{})
}

// release assigns ranks and releases every waiting process.
func (b *Broker) release(alloc *allocation) core.Config {
	b.mu.Lock()
	cfg := core.Config{}
	var labels, book []string
	for _, spec := range alloc.specs {
		cfg.NSubjobs++
		cfg.SubjobSizes = append(cfg.SubjobSizes, spec.Count)
		labels = append(labels, spec.Label)
		cfg.WorldSize += spec.Count
	}
	for _, spec := range alloc.specs {
		ranks := alloc.checkins[spec.Label]
		for r := 0; r < spec.Count; r++ {
			book = append(book, ranks[r].addr)
		}
	}
	cfg.SetSubjobLabels(labels)
	cfg.SetAddressBook(book)
	alloc.config = cfg
	alloc.released = true
	rel := core.NewRelease(cfg)
	for idx, spec := range alloc.specs {
		for r := 0; r < spec.Count; r++ {
			alloc.checkins[spec.Label][r].decide(rel.Reply(idx, cfg.RankOf(idx, r)))
		}
	}
	b.mu.Unlock()
	return cfg
}

// ServeCall implements rpc.TaskHandler for the barrier service: a check-in
// is answered at once when there is nothing to wait for, and otherwise waits
// for the transaction's outcome as a record in the allocation.
func (b *Broker) ServeCall(call *rpc.Call, method string, body json.RawMessage) {
	if method != "checkin" {
		call.Reply(nil, fmt.Errorf("grab: unknown method %s", method))
		return
	}
	var args core.CheckinArgs
	if err := rpc.Decode(body, &args); err != nil {
		call.Reply(nil, err)
		return
	}
	refuse := func(reason string) { call.Reply(core.CheckinReply{Proceed: false, Reason: reason}, nil) }
	b.mu.Lock()
	alloc := b.current[args.Job]
	if alloc == nil {
		b.mu.Unlock()
		refuse("unknown allocation " + args.Job)
		return
	}
	if alloc.failed {
		reason := alloc.reason
		b.mu.Unlock()
		refuse(reason)
		return
	}
	ranks, ok := alloc.checkins[args.Subjob]
	if !ok {
		b.mu.Unlock()
		refuse("unknown subjob " + args.Subjob)
		return
	}
	if !args.OK {
		b.mu.Unlock()
		b.fail(alloc, args.Subjob, "process reported unsuccessful startup: "+args.Msg)
		refuse("startup rejected")
		return
	}
	w := &waiter{addr: args.Addr, call: call}
	w.answer.Init(b.sim, w)
	if _, dup := ranks[args.Rank]; !dup {
		alloc.arrived++
	}
	ranks[args.Rank] = w
	b.mu.Unlock()
	alloc.progress.TrySend(struct{}{})
}

// HandleNotify implements rpc.TaskHandler; the barrier has no notifications.
func (b *Broker) HandleNotify(sc *rpc.ServerConn, method string, body json.RawMessage) {}
