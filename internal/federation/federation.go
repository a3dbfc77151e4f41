package federation

import (
	"fmt"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/mds"
	"cogrid/internal/metrics"
	"cogrid/internal/rpc"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// serviceName is the transport service replicas speak the federation
// protocol (heartbeat, election, coordinator, append) on.
const serviceName = "fed"

// shardMapMetaKey is the MDS meta document the leader publishes the
// current shard map under, so a restarting replica can bootstrap its
// view before the first heartbeat reaches it.
const shardMapMetaKey = "fed/shardmap"

// The protocol's timing. The intervals sit off the machines' 31-second
// publish rounds and off whole minutes, so federation maintenance does not
// pile onto the same virtual instants as directory traffic.
const (
	// hostPrefix names replica hosts: fed00, fed01, ...
	hostPrefix = "fed"
	// heartbeatInterval paces the leader's rounds; leaseTimeout is how
	// long a follower tolerates silence before starting an election;
	// probeTimeout bounds each peer-to-peer protocol call; deadBeats is
	// how many consecutive missed heartbeats declare a replica dead.
	heartbeatInterval = 5 * time.Second
	leaseTimeout      = 17 * time.Second
	probeTimeout      = 4 * time.Second
	deadBeats         = 3
	// maxHops caps broker-to-broker forwards per request.
	maxHops = 2
	// defaultPeerReapInterval is Options.PeerReapInterval's zero value.
	defaultPeerReapInterval = 40 * time.Second
)

// Options configures a federation.
type Options struct {
	// Replicas is the peer-group size (>= 1).
	Replicas int
	// Directory is the MDS every replica's broker caches records from
	// and the leader publishes the shard map to.
	Directory transport.Addr
	// Broker is the per-replica broker configuration; Directory,
	// ReplicaID, and the federation hooks are overridden per replica.
	Broker broker.Options
	// PeerReapInterval paces each replica's sweep of handed-off journal
	// entries.
	PeerReapInterval time.Duration
}

func (o *Options) fill() {
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.PeerReapInterval <= 0 {
		o.PeerReapInterval = defaultPeerReapInterval
	}
}

// Federation is a running peer group of broker replicas.
type Federation struct {
	sim      *vtime.Sim
	net      *transport.Network
	ctrlCfg  core.ControllerConfig
	opts     Options
	replicas []*Replica
}

// Replica is one member of the peer group. Its process state (broker,
// controller, election and journal state, daemons) lives in the current
// incarnation; Crash discards it and Restart builds a fresh one, so a
// restarted replica remembers nothing it did not re-learn from its
// peers.
type Replica struct {
	fed  *Federation
	id   int
	name string
	host *transport.Host

	alive   bool
	inc     *incarnation
	gen     int
	brokers []*broker.Broker // every incarnation's broker, for audits
}

// New builds and starts a federation of opts.Replicas brokers on fresh
// hosts of net. The highest-id replica starts as leader (the state a
// completed bully election converges to), and every replica starts with
// the same initial shard map over the full peer set.
func New(net *transport.Network, ctrlCfg core.ControllerConfig, opts Options) (*Federation, error) {
	opts.fill()
	f := &Federation{
		sim:     net.Sim(),
		net:     net,
		ctrlCfg: ctrlCfg,
		opts:    opts,
	}
	initial := ShardMap{
		Version:  1,
		Epoch:    1,
		Leader:   f.replicaName(opts.Replicas - 1),
		Replicas: f.allNames(),
		VNodes:   defaultVNodes,
	}
	for i := 0; i < opts.Replicas; i++ {
		r := &Replica{
			fed:  f,
			id:   i,
			name: f.replicaName(i),
			host: net.AddHost(f.replicaName(i)),
		}
		f.replicas = append(f.replicas, r)
	}
	for _, r := range f.replicas {
		if err := r.start(initial); err != nil {
			return nil, err
		}
	}
	// The initial leader publishes the bootstrap shard map.
	if lead := f.replicas[opts.Replicas-1]; lead.inc != nil {
		lead.inc.publishShardMap(initial)
	}
	f.gauges().G("fed.live_replicas").Add(float64(opts.Replicas))
	return f, nil
}

func (f *Federation) replicaName(i int) string {
	return fmt.Sprintf("%s%02d", hostPrefix, i)
}

// brokerAddr is the broker endpoint of the named replica.
func (f *Federation) brokerAddr(name string) transport.Addr {
	return transport.Addr{Host: name, Service: broker.ServiceName}
}

func (f *Federation) allNames() []string {
	names := make([]string, f.opts.Replicas)
	for i := range names {
		names[i] = f.replicaName(i)
	}
	return names
}

// Replicas returns the peer group in id order.
func (f *Federation) Replicas() []*Replica { return f.replicas }

// Replica returns peer i.
func (f *Federation) Replica(i int) *Replica { return f.replicas[i] }

// Options exposes the filled configuration.
func (f *Federation) Options() Options { return f.opts }

func (f *Federation) tracer() *trace.Tracer        { return f.net.Tracer() }
func (f *Federation) counters() *trace.Counters    { return f.net.Counters() }
func (f *Federation) gauges() *metrics.GaugeSet    { return f.net.Gauges() }
func (f *Federation) hists() *metrics.HistogramSet { return f.net.Hists() }

// MergedJournal merges every live replica's journal copy — the audit
// surface the DST invariants read. Entries only known to a crashed
// process died with it; what survives here is exactly what the
// replication protocol preserved.
func (f *Federation) MergedJournal() []Entry {
	merged := newJournal()
	for _, r := range f.replicas {
		inc := r.inc
		if inc == nil {
			continue
		}
		for _, e := range inc.jour.snapshot() {
			merged.merge(e)
		}
	}
	return merged.snapshot()
}

// Name returns the replica's host name (also its replica id).
func (r *Replica) Name() string { return r.name }

// ID returns the replica's index.
func (r *Replica) ID() int { return r.id }

// Host returns the replica's simulated host.
func (r *Replica) Host() *transport.Host { return r.host }

// Alive reports whether the replica process is up.
func (r *Replica) Alive() bool {
	return r.alive
}

// Broker returns the current incarnation's broker (nil while crashed).
func (r *Replica) Broker() *broker.Broker {
	if r.inc == nil {
		return nil
	}
	return r.inc.b
}

// Brokers returns every incarnation's broker, oldest first — the audit
// surface for per-job invariants across crashes.
func (r *Replica) Brokers() []*broker.Broker {
	return append([]*broker.Broker(nil), r.brokers...)
}

// BrokerContact is the address clients submit to.
func (r *Replica) BrokerContact() transport.Addr {
	return transport.Addr{Host: r.name, Service: broker.ServiceName}
}

// fedAddr is the replica's federation protocol endpoint.
func (r *Replica) fedAddr() transport.Addr {
	return transport.Addr{Host: r.name, Service: serviceName}
}

// LeaderName reports who this replica currently believes leads ("" while
// crashed or unknown).
func (r *Replica) LeaderName() string {
	inc := r.inc
	if inc == nil {
		return ""
	}
	if inc.leader < 0 {
		return ""
	}
	return r.fed.replicaName(inc.leader)
}

// ShardMapView returns the replica's current shard map (zero while
// crashed).
func (r *Replica) ShardMapView() ShardMap {
	inc := r.inc
	if inc == nil {
		return ShardMap{}
	}
	return inc.shardMap()
}

// start builds a fresh incarnation: broker with federation hooks, the
// protocol endpoint, and the maintenance daemons.
func (r *Replica) start(shard ShardMap) error {
	f := r.fed
	r.gen++
	gen := r.gen
	tr := f.tracer()
	inc := &incarnation{
		r:   r,
		gen: gen,
		// Maintenance traffic (heartbeats, elections, journal pushes,
		// shard-map publication, adopted reaps) is attributed under a
		// synthetic per-process request, like the directory publishers'
		// rounds, so causal-trace coverage accounts for it.
		ctx:      tr.Child(trace.NewRequest("fed@"+r.name), "g", tr.Itoa(gen)),
		stop:     vtime.NewEvent(f.sim, fmt.Sprintf("fed-stop:%s/g%d", r.name, gen)),
		pushWake: vtime.NewChan[struct{}](f.sim, fmt.Sprintf("fed-push:%s/g%d", r.name, gen), 1),
		leader:   f.opts.Replicas - 1,
		epoch:    shard.Epoch,
		lastBeat: f.sim.Now(),
		shard:    shard,
		jour:     newJournal(),
		created:  make(map[string]bool),
		acked:    make([]int, f.opts.Replicas),
		misses:   make([]int, f.opts.Replicas),
		live:     make([]bool, f.opts.Replicas),
	}
	for i := range inc.live {
		inc.live[i] = true
	}
	if shard.Version == 0 {
		// Restart bootstrap: no map handed in; leadership unknown.
		inc.leader = -1
		inc.epoch = 0
	}
	inc.shardRing = inc.shard.Ring()

	ctrlCfg := f.ctrlCfg
	ctrlCfg.OnAllocation = inc.onAllocation
	ctrlCfg.OnOrphan = inc.onOrphan
	ctrlCfg.OnReap = inc.onReap
	bOpts := f.opts.Broker
	bOpts.Directory = f.opts.Directory
	bOpts.ReplicaID = r.name
	bOpts.CandidateFilter = inc.filterRecords
	bOpts.Forward = inc.forward
	bOpts.OnTicket = inc.onTicket
	b, err := broker.New(r.host, ctrlCfg, bOpts)
	if err != nil {
		return fmt.Errorf("federation: replica %s: %v", r.name, err)
	}
	inc.b = b
	l, err := r.host.Listen(serviceName)
	if err != nil {
		b.Close()
		return fmt.Errorf("federation: replica %s: %v", r.name, err)
	}
	inc.server = rpc.Serve(f.sim, l, rpc.HandlerFuncs{Call: inc.handleCall}, nil)

	r.alive = true
	r.inc = inc
	r.brokers = append(r.brokers, b)

	// Stagger each replica's protocol clock slightly so rounds from
	// different replicas never share a virtual instant with each other
	// or with the publishers' rounds.
	offset := heartbeatInterval + time.Duration(r.id)*37*time.Millisecond
	f.sim.GoDaemon(fmt.Sprintf("fed-mon:%s/g%d", r.name, gen), func() {
		if inc.stop.WaitTimeout(offset) {
			return
		}
		inc.monitor()
	})
	f.sim.GoDaemon(fmt.Sprintf("fed-pusher:%s/g%d", r.name, gen), inc.pusher)
	f.sim.GoDaemon(fmt.Sprintf("fed-reaper:%s/g%d", r.name, gen), inc.peerReaper)
	if shard.Version == 0 {
		// Bootstrap the shard map from the directory in the background;
		// heartbeats will correct it if stale.
		f.sim.GoDaemon(fmt.Sprintf("fed-bootstrap:%s/g%d", r.name, gen), inc.bootstrapShardMap)
	}
	return nil
}

// Crash kills the replica process: daemons stop, the host's network
// presence dies, and every unfinished co-allocation its controller was
// driving is torn down locally (the process is gone; only what the
// journal already replicated survives for peers to act on).
func (r *Replica) Crash() {
	if !r.alive {
		return
	}
	r.alive = false
	inc := r.inc
	r.inc = nil

	inc.stop.Set()
	inc.pushWake.Close()
	r.host.Crash()
	inc.server.Close()
	inc.b.Close()
	for _, j := range inc.b.Controller().Jobs() {
		if !j.Done().IsSet() {
			j.Abort("federation: replica crashed")
		}
	}
	f := r.fed
	f.counters().AddKey("fed", "replica", "crash", r.name, 1)
	f.gauges().G("fed.live_replicas").Add(-1)
	f.tracer().InstantCtx(inc.ctx, "fed", "crash", r.name, r.name, "")
	// Black-box the moments before the crash: the handoff and re-election
	// that follow are best debugged from what the dead replica last saw.
	f.net.FlightRec().Trigger("replica-crash", r.name)
}

// Restart brings the replica back as a fresh process: empty journal,
// unknown leader, shard map bootstrapped from the directory and repaired
// by the next heartbeat that reaches it.
func (r *Replica) Restart() error {
	if r.alive {
		return nil
	}
	r.host.RestoreCrashed()
	if err := r.start(ShardMap{}); err != nil {
		return err
	}
	f := r.fed
	inc := r.inc
	f.counters().AddKey("fed", "replica", "restart", r.name, 1)
	f.gauges().G("fed.live_replicas").Add(1)
	f.tracer().InstantCtx(inc.ctx, "fed", "restart", r.name, r.name, "")
	return nil
}

// incarnation is one replica process lifetime.
type incarnation struct {
	r        *Replica
	gen      int
	ctx      trace.Ctx
	b        *broker.Broker
	server   *rpc.Server
	stop     *vtime.Event
	pushWake *vtime.Chan[struct{}]
	jour     *journal

	leader    int // replica id, -1 unknown
	epoch     int
	lastBeat  time.Duration
	electing  bool
	shard     ShardMap
	shardRing *ring
	// created marks journal keys this incarnation's own broker produced:
	// the peer reaper leaves them to the broker's own lifecycle and only
	// settles adopted keys (handed off, or left behind by a previous
	// incarnation of this same replica).
	created map[string]bool
	// Leader bookkeeping (valid while leader): per-replica broadcast
	// acks, consecutive miss counts, and liveness view.
	acked  []int
	misses []int
	live   []bool
}

func (inc *incarnation) sim() *vtime.Sim { return inc.r.fed.sim }
func (inc *incarnation) now() time.Duration {
	return inc.r.fed.sim.Now()
}

func (inc *incarnation) count(object, verb string, delta int64) {
	inc.r.fed.counters().AddKey("fed", object, verb, inc.r.name, delta)
}

func (inc *incarnation) shardMap() ShardMap {
	return inc.shard
}

// adoptShard installs a newer shard map (version-compared).
func (inc *incarnation) adoptShard(m ShardMap) {
	if m.Version == 0 {
		return
	}
	if m.Version <= inc.shard.Version {
		return
	}
	inc.shard = m
	inc.shardRing = m.Ring()
}

// filterRecords keeps the directory records this replica's shard owns.
// With no shard map yet (bootstrap), selection is unrestricted.
func (inc *incarnation) filterRecords(records []mds.Record) []mds.Record {
	ring := inc.shardRing
	if ring == nil {
		return records
	}
	out := records[:0:0]
	for _, rec := range records {
		if ring.Owner(rec.Name) == inc.r.name {
			out = append(out, rec)
		}
	}
	return out
}

// --- journal feed hooks (run on broker/controller paths) ---

func (inc *incarnation) markCreated(key string) {
	inc.created[key] = true
}

func (inc *incarnation) onTicket(ev broker.TicketEvent) {
	now := inc.now()
	key := "t/" + ev.Ticket
	switch ev.Kind {
	case "open":
		inc.markCreated(key)
		inc.jour.upsert(key, now, func(e Entry) Entry {
			e.Kind = KindTicket
			e.Origin = inc.r.name
			e.Owner = inc.r.name
			e.ReqKey = ev.Key
			e.State = StateOpen
			return e
		})
	case "close":
		inc.jour.upsert(key, now, func(e Entry) Entry {
			e.Kind = KindTicket
			e.Origin = inc.r.name
			e.Owner = inc.r.name
			e.ReqKey = ev.Key
			e.State = StateClosed
			if ev.JobID != "" {
				e.JobID = ev.JobID
				e.Committed = true
			}
			return e
		})
		// Discarded attempts' allocations settle with the ticket: their
		// subjobs were cancelled by the 2PC abort (or escalated to
		// orphan entries, which outlive the ticket). The committed job's
		// allocations stay open while its subjobs run — they are exactly
		// what a peer must reap if this replica dies — and close when
		// the job terminates.
		for _, job := range ev.JobIDs {
			if job == ev.JobID {
				continue
			}
			for _, ak := range inc.jour.allocKeysForJob(job) {
				inc.jour.upsert(ak, now, func(e Entry) Entry {
					e.State = StateClosed
					return e
				})
			}
		}
		if ev.JobID != "" {
			inc.watchJob(ev.JobID)
		}
	}
	inc.pushWake.TrySend(struct{}{})
}

// watchJob closes a committed job's allocation entries once the job
// terminates (all subjobs finished, or the job was aborted/killed).
func (inc *incarnation) watchJob(jobID string) {
	var job *core.Job
	for _, j := range inc.b.Controller().Jobs() {
		if j.ID() == jobID {
			job = j
			break
		}
	}
	if job == nil {
		return
	}
	inc.sim().GoDaemon(fmt.Sprintf("fed-watch:%s/g%d/%s", inc.r.name, inc.gen, jobID), func() {
		job.Done().Wait()
		if inc.stop.IsSet() {
			// The replica died first; settling is now a peer's duty.
			return
		}
		now := inc.now()
		for _, ak := range inc.jour.allocKeysForJob(jobID) {
			inc.jour.upsert(ak, now, func(e Entry) Entry {
				e.State = StateClosed
				return e
			})
		}
		inc.pushWake.TrySend(struct{}{})
	})
}

func (inc *incarnation) onAllocation(job, subjob string, rm transport.Addr, contact string) {
	key := "a/" + job + "/" + subjob
	inc.markCreated(key)
	inc.jour.upsert(key, inc.now(), func(e Entry) Entry {
		e.Kind = KindAlloc
		e.Origin = inc.r.name
		e.Owner = inc.r.name
		e.RM = rm.String()
		e.Contact = contact
		e.State = StateOpen
		return e
	})
	inc.pushWake.TrySend(struct{}{})
}

func (inc *incarnation) onOrphan(o core.Orphan) {
	now := inc.now()
	key := "o/" + o.Job + "/" + o.Subjob
	inc.markCreated(key)
	inc.jour.upsert(key, now, func(e Entry) Entry {
		e.Kind = KindOrphan
		e.Origin = inc.r.name
		e.Owner = inc.r.name
		e.RM = o.RM.String()
		e.Contact = o.JobContact
		e.State = StateOpen
		return e
	})
	// The orphan entry carries the reap duty from here on; the matching
	// alloc entry would double-cancel.
	inc.jour.upsert("a/"+o.Job+"/"+o.Subjob, now, func(e Entry) Entry {
		if e.Kind == "" || e.State != StateOpen {
			return e
		}
		e.State = StateClosed
		return e
	})
	inc.pushWake.TrySend(struct{}{})
}

func (inc *incarnation) onReap(key string, err error) {
	if err != nil {
		return // still pending: the controller's next sweep retries it
	}
	inc.jour.upsert("o/"+key, inc.now(), func(e Entry) Entry {
		if e.Kind == "" {
			return e
		}
		e.State = StateReaped
		return e
	})
	inc.pushWake.TrySend(struct{}{})
}
