package federation

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"cogrid/internal/mds"
	"cogrid/internal/rpc"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// Protocol messages. All four methods run on the "fed" service.
type heartbeatMsg struct {
	From  string   `json:"from"`
	Epoch int      `json:"epoch"`
	Shard ShardMap `json:"shard"`
	// UpdStart is the log offset Updates continues from (the leader's
	// record of what this follower has acknowledged).
	UpdStart int     `json:"upd_start"`
	Updates  []Entry `json:"updates,omitempty"`
}

type heartbeatReply struct {
	// Ack is the log length the follower has now received; -1 rejects a
	// stale leader (Epoch then carries the follower's newer epoch).
	Ack   int `json:"ack"`
	Epoch int `json:"epoch"`
	// Updates are the follower's journal mutations not yet sequenced by
	// the leader, piggybacked on the heartbeat reply.
	Updates []Entry `json:"updates,omitempty"`
}

type electionMsg struct {
	From string `json:"from"`
	ID   int    `json:"id"`
}

type coordMsg struct {
	From  string   `json:"from"`
	Epoch int      `json:"epoch"`
	Shard ShardMap `json:"shard"`
}

type appendMsg struct {
	From    string  `json:"from"`
	Entries []Entry `json:"entries"`
}

type appendReply struct {
	// Entries are the sequenced copies of what was pushed, so the
	// follower can drain its unacked buffer immediately.
	Entries []Entry `json:"entries,omitempty"`
}

type ackReply struct{}

// replicaID resolves a replica host name back to its index (-1 unknown).
func (f *Federation) replicaID(name string) int {
	if !strings.HasPrefix(name, hostPrefix) {
		return -1
	}
	var id int
	if _, err := fmt.Sscanf(name[len(hostPrefix):], "%d", &id); err != nil {
		return -1
	}
	if id < 0 || id >= f.opts.Replicas {
		return -1
	}
	return id
}

// errPeerTimeout reports a protocol call that exceeded the probe bound.
var errPeerTimeout = fmt.Errorf("fed: peer call timed out")

// peerCall makes one federation protocol call to a peer, bounded by the
// probe timeout end to end — including connection establishment, since
// dialing a dead peer costs the transport's full SYN-retry window, far
// longer than a heartbeat round can afford to stall. The dial and call
// run in a helper process that decodes the reply, once and through
// rpc.Decode, into a value of its own and hands it back over a channel; on
// timeout the helper is abandoned (its TrySend lands in the buffer unread)
// and the caller records a miss.
func peerCall[R any](inc *incarnation, peer, method string, req any) (R, error) {
	f := inc.r.fed
	ch := vtime.NewChan[peerOutcome[R]](f.sim, fmt.Sprintf("fed-call:%s/g%d>%s", inc.r.name, inc.gen, peer), 1)
	f.sim.GoDaemon(fmt.Sprintf("fed-call:%s/g%d>%s/%s", inc.r.name, inc.gen, peer, method), func() {
		var out peerOutcome[R]
		conn, err := inc.r.host.DialCtx(transport.Addr{Host: peer, Service: serviceName},
			inc.r.host.Network().Tracer().Child(inc.ctx, method, ">", peer))
		if err != nil {
			out.err = err
			ch.TrySend(out)
			return
		}
		c := rpc.NewClient(f.sim, conn)
		defer c.Close()
		out.err = c.Call(method, req, &out.reply, probeTimeout)
		ch.TrySend(out)
	})
	out, res := ch.RecvTimeout(probeTimeout)
	if res != vtime.RecvOK {
		out.err = errPeerTimeout
	}
	if out.err != nil {
		var none R
		return none, out.err
	}
	return out.reply, nil
}

// peerOutcome is what a peerCall helper hands back.
type peerOutcome[R any] struct {
	reply R
	err   error
}

// handleCall serves the federation protocol endpoint.
func (inc *incarnation) handleCall(sc *rpc.ServerConn, method string, body json.RawMessage) (any, error) {
	switch method {
	case "heartbeat":
		var req heartbeatMsg
		if err := rpc.Decode(body, &req); err != nil {
			return nil, err
		}
		return inc.handleHeartbeat(req)
	case "election":
		var req electionMsg
		if err := rpc.Decode(body, &req); err != nil {
			return nil, err
		}
		return inc.handleElection(req)
	case "coordinator":
		var req coordMsg
		if err := rpc.Decode(body, &req); err != nil {
			return nil, err
		}
		return inc.handleCoordinator(req)
	case "append":
		var req appendMsg
		if err := rpc.Decode(body, &req); err != nil {
			return nil, err
		}
		return inc.handleAppend(req)
	}
	return nil, fmt.Errorf("fed: unknown method %q", method)
}

func (inc *incarnation) handleHeartbeat(req heartbeatMsg) (any, error) {
	f := inc.r.fed
	fromID := f.replicaID(req.From)
	if req.Epoch < inc.epoch ||
		(req.Epoch == inc.epoch && inc.leader == inc.r.id && fromID < inc.r.id) {
		// Stale leadership: reject with our epoch so the sender steps
		// down. Equal-epoch splits (possible after concurrent elections
		// during a partition) resolve to the higher id, matching the
		// bully protocol's order.
		return heartbeatReply{Ack: -1, Epoch: inc.epoch}, nil
	}
	inc.leader = fromID
	inc.epoch = req.Epoch
	inc.lastBeat = f.sim.Now()
	inc.electing = false
	inc.adoptShard(req.Shard)
	inc.jour.applyBroadcast(req.Updates)
	inc.count("heartbeat", "recv", 1)
	return heartbeatReply{
		Ack:     req.UpdStart + len(req.Updates),
		Epoch:   req.Epoch,
		Updates: inc.jour.pending(),
	}, nil
}

func (inc *incarnation) handleElection(req electionMsg) (any, error) {
	// A lower id is probing for live higher replicas. Answering suppresses
	// its candidacy; per the bully protocol we then ensure a leader
	// emerges at or above our own id.
	if inc.leader != inc.r.id && !inc.electing {
		inc.sim().GoDaemon(fmt.Sprintf("fed-elect:%s/g%d", inc.r.name, inc.gen), inc.runElection)
	}
	return ackReply{}, nil
}

func (inc *incarnation) handleCoordinator(req coordMsg) (any, error) {
	f := inc.r.fed
	fromID := f.replicaID(req.From)
	if req.Epoch >= inc.epoch {
		inc.epoch = req.Epoch
		inc.leader = fromID
		inc.electing = false
		inc.lastBeat = f.sim.Now()
	}
	inc.adoptShard(req.Shard)
	inc.count("coordinator", "recv", 1)
	return ackReply{}, nil
}

func (inc *incarnation) handleAppend(req appendMsg) (any, error) {
	if inc.leader != inc.r.id {
		return nil, fmt.Errorf("fed: %s is not leader", inc.r.name)
	}
	seqd := make([]Entry, 0, len(req.Entries))
	for _, e := range req.Entries {
		inc.jour.leaderAccept(e)
		if cur, ok := inc.jour.get(e.Key); ok {
			seqd = append(seqd, cur)
		}
	}
	inc.count("append", "recv", 1)
	return appendReply{Entries: seqd}, nil
}

// monitor is the replica's protocol clock: as leader it heartbeats the
// peer group every interval; as follower it watches the lease and starts
// an election when the leader has gone silent.
func (inc *incarnation) monitor() {
	f := inc.r.fed
	for {
		leader, electing, lastBeat := inc.leader, inc.electing, inc.lastBeat
		switch {
		case leader == inc.r.id:
			inc.heartbeatRound()
		case electing:
			// A takeover election spawned by handleElection is running.
		case f.sim.Now()-lastBeat > leaseTimeout:
			inc.runElection()
		}
		if inc.stop.WaitTimeout(heartbeatInterval) {
			return
		}
	}
}

// heartbeatRound sends one heartbeat to every peer in parallel and folds
// the replies back in ascending peer order, so the round's effect on the
// journal and liveness view is a deterministic function of the replies.
func (inc *incarnation) heartbeatRound() {
	f := inc.r.fed
	n := f.opts.Replicas
	epoch := inc.epoch
	shard := inc.shard
	acked := append([]int(nil), inc.acked...)

	type beat struct {
		ok    bool
		reply heartbeatReply
	}
	results := make([]beat, n)
	wg := vtime.NewWaitGroup(f.sim)
	for p := 0; p < n; p++ {
		if p == inc.r.id {
			continue
		}
		p := p
		wg.Add(1)
		f.sim.GoDaemon(fmt.Sprintf("fed-beat:%s/g%d>%02d", inc.r.name, inc.gen, p), func() {
			defer wg.Done()
			updates, _ := inc.jour.logSuffix(acked[p])
			req := heartbeatMsg{
				From: inc.r.name, Epoch: epoch, Shard: shard,
				UpdStart: acked[p], Updates: updates,
			}
			reply, err := peerCall[heartbeatReply](inc, f.replicaName(p), "heartbeat", req)
			results[p] = beat{ok: err == nil, reply: reply}
		})
	}
	wg.Wait()

	if inc.leader != inc.r.id || inc.epoch != epoch {
		// Deposed while the round was in flight.
		return
	}
	var dead []int
	rejoined := false
	for p := 0; p < n; p++ {
		if p == inc.r.id {
			continue
		}
		res := results[p]
		switch {
		case res.ok && res.reply.Ack < 0:
			// A peer with a newer epoch: this leadership is stale.
			inc.leader = -1
			inc.lastBeat = f.sim.Now()
			inc.count("leader", "stepdown", 1)
			return
		case res.ok:
			if !inc.live[p] {
				inc.live[p] = true
				rejoined = true
			}
			inc.misses[p] = 0
			if res.reply.Ack > inc.acked[p] {
				inc.acked[p] = res.reply.Ack
			}
			for _, e := range res.reply.Updates {
				inc.jour.leaderAccept(e)
			}
		case inc.live[p]:
			inc.misses[p]++
			if inc.misses[p] >= deadBeats {
				inc.live[p] = false
				dead = append(dead, p)
			}
		}
	}
	var newShard ShardMap
	reshard := rejoined || len(dead) > 0
	if reshard {
		newShard = inc.recomputeShard()
		for _, p := range dead {
			inc.handoff(f.replicaName(p))
		}
	}

	inc.count("heartbeat", "round", 1)
	for _, p := range dead {
		inc.count("replica", "declare-dead", 1)
		f.tracer().InstantCtx(inc.ctx, "fed", "declare-dead", inc.r.name, inc.r.name, "",
			trace.Arg{Key: "peer", Val: f.replicaName(p)})
	}
	if reshard {
		inc.publishShardMap(newShard)
	}
}

// runElection is the bully protocol: probe every higher id; any answer
// suppresses this candidacy (the higher replica takes over), no answer
// means this replica wins the group.
func (inc *incarnation) runElection() {
	f := inc.r.fed
	if inc.electing || inc.leader == inc.r.id {
		return
	}
	inc.electing = true
	startEpoch := inc.epoch
	start := f.sim.Now()
	inc.count("election", "start", 1)

	higherAlive := false
	for p := inc.r.id + 1; p < f.opts.Replicas; p++ {
		if _, err := peerCall[ackReply](inc, f.replicaName(p), "election", electionMsg{From: inc.r.name, ID: inc.r.id}); err == nil {
			higherAlive = true
			break
		}
	}
	if higherAlive {
		inc.electing = false
		// Renew the lease: the higher replica's own election (or its
		// existing heartbeats) will claim the group.
		inc.lastBeat = f.sim.Now()
		inc.count("election", "yield", 1)
		return
	}

	if inc.epoch != startEpoch || inc.leader == inc.r.id {
		// A coordinator announcement landed while we probed.
		inc.electing = false
		return
	}
	inc.epoch = startEpoch + 1
	inc.leader = inc.r.id
	inc.electing = false
	inc.lastBeat = f.sim.Now()
	inc.jour.becomeLeader()
	for i := range inc.live {
		inc.live[i] = true
		inc.misses[i] = 0
		inc.acked[i] = 0
	}
	shard := inc.recomputeShard()
	epoch := inc.epoch

	f.hists().H("fed.election.latency").Record(int64(f.sim.Now() - start))
	inc.count("election", "win", 1)
	f.tracer().InstantCtx(inc.ctx, "fed", "leader-elected", inc.r.name, inc.r.name, "",
		trace.Arg{Key: "epoch", Val: fmt.Sprint(epoch)})
	// Announce in ascending id order; peers that are down simply miss the
	// announcement and learn the leader from its first heartbeat.
	for p := 0; p < f.opts.Replicas; p++ {
		if p == inc.r.id {
			continue
		}
		peerCall[ackReply](inc, f.replicaName(p), "coordinator", coordMsg{From: inc.r.name, Epoch: epoch, Shard: shard})
	}
	inc.publishShardMap(shard)
}

// recomputeShard rebuilds the shard map over the currently-live
// replica view.
func (inc *incarnation) recomputeShard() ShardMap {
	f := inc.r.fed
	var names []string
	for p := 0; p < f.opts.Replicas; p++ {
		if inc.live[p] {
			names = append(names, f.replicaName(p))
		}
	}
	m := ShardMap{
		Version:  inc.shard.Version + 1,
		Epoch:    inc.epoch,
		Leader:   inc.r.name,
		Replicas: names,
		VNodes:   defaultVNodes,
	}
	inc.shard = m
	inc.shardRing = m.Ring()
	return m
}

// handoff reassigns a dead replica's open journal entries: its
// in-flight tickets close (the process driving them is gone), its live
// allocations and unconfirmed cancels pass to the ring successor, whose
// reaper settles them against the LRMs. The caller has already recomputed
// the shard map without the dead replica.
func (inc *incarnation) handoff(dead string) {
	now := inc.now()
	ring := inc.shardRing
	for _, e := range inc.jour.openOwnedBy(dead) {
		switch e.Kind {
		case KindTicket:
			e.State = StateClosed
		default:
			heir := ring.Owner(e.Key)
			if heir == "" || heir == dead {
				heir = inc.r.name
			}
			e.Owner = heir
			e.HandoffAt = now
		}
		e.Rev++
		e.At = now
		inc.jour.leaderAccept(e)
		inc.count("handoff", e.Kind, 1)
	}
}

// publishShardMap records the map in the directory's meta store (best
// effort, asynchronous: the authoritative propagation path is the
// heartbeat; the directory copy only bootstraps restarted replicas).
func (inc *incarnation) publishShardMap(m ShardMap) {
	f := inc.r.fed
	inc.sim().GoDaemon(fmt.Sprintf("fed-publish:%s/g%d/v%d", inc.r.name, inc.gen, m.Version), func() {
		client, err := mds.DialCtx(inc.r.host, f.opts.Directory, f.tracer().Child(inc.ctx, "shardmap-publish"))
		if err != nil {
			inc.count("shardmap", "publish-error", 1)
			return
		}
		defer client.Close()
		if err := client.PutMeta(shardMapMetaKey, m.JSON()); err != nil {
			inc.count("shardmap", "publish-error", 1)
			return
		}
		inc.count("shardmap", "publish", 1)
	})
}

// bootstrapShardMap loads the last published map from the directory — a
// restarted replica's first view until a heartbeat repairs it.
func (inc *incarnation) bootstrapShardMap() {
	f := inc.r.fed
	client, err := mds.DialCtx(inc.r.host, f.opts.Directory, f.tracer().Child(inc.ctx, "shardmap-bootstrap"))
	if err != nil {
		return
	}
	defer client.Close()
	meta, err := client.GetMeta(shardMapMetaKey)
	if err != nil {
		return
	}
	m, err := ParseShardMap(meta.Value)
	if err != nil {
		return
	}
	inc.adoptShard(m)
	inc.count("shardmap", "bootstrap", 1)
}

// pusher forwards this replica's journal mutations to the leader as they
// happen, instead of waiting for the next heartbeat to collect them. The
// periodic wake retries anything a failed push left buffered.
func (inc *incarnation) pusher() {
	f := inc.r.fed
	for {
		_, res := inc.pushWake.RecvTimeout(heartbeatInterval)
		if res == vtime.RecvClosed || inc.stop.IsSet() {
			return
		}
		// Batch boundary: the kernel runs every goroutine of the current
		// virtual instant concurrently, so a wake must not snapshot the
		// buffer until the instant's remaining mutations have landed —
		// sleeping forces time to advance past them. The per-replica
		// stagger keeps two replicas' pushes from reaching the leader at
		// the same instant, which would make sequencing order a race.
		f.sim.Sleep(time.Millisecond * time.Duration(1+inc.r.id))
		if inc.stop.IsSet() {
			return
		}
		for {
			if _, ok := inc.pushWake.TryRecv(); !ok {
				break
			}
		}
		pending := inc.jour.pending()
		if len(pending) == 0 {
			continue
		}
		leader := inc.leader
		if leader == inc.r.id {
			inc.jour.leaderFlush()
			continue
		}
		if leader < 0 {
			continue // no leader known; the next wake retries
		}
		reply, err := peerCall[appendReply](inc, f.replicaName(leader), "append", appendMsg{From: inc.r.name, Entries: pending})
		if err != nil {
			inc.count("push", "error", 1)
			continue // heartbeat exchange repairs
		}
		inc.jour.applyBroadcast(reply.Entries)
		inc.count("push", "ok", 1)
	}
}

// peerReaper sweeps journal entries this replica owns but did not
// create: allocations and orphans handed off from a dead peer (or left
// behind by this replica's own previous incarnation). Each is settled by
// cancelling the underlying LRM job — idempotent, since cancelling a
// finished job is a no-op at the machine.
func (inc *incarnation) peerReaper() {
	f := inc.r.fed
	for {
		if inc.stop.WaitTimeout(f.opts.PeerReapInterval) {
			return
		}
		inc.reapAdopted()
	}
}

func (inc *incarnation) reapAdopted() {
	reaped := 0
	for _, e := range inc.jour.openOwnedBy(inc.r.name) {
		if inc.created[e.Key] {
			continue
		}
		switch e.Kind {
		case KindTicket:
			// An adopted open ticket has no process driving its 2PC;
			// close it uncommitted so it cannot be double-served.
			inc.jour.upsert(e.Key, inc.now(), func(cur Entry) Entry {
				if cur.State != StateOpen {
					return cur
				}
				cur.State = StateClosed
				return cur
			})
			reaped++
		case KindAlloc, KindOrphan:
			if inc.reapEntry(e) {
				reaped++
			}
		}
	}
	if reaped > 0 {
		inc.pushWake.TrySend(struct{}{})
	}
}

// reapEntry cancels one adopted allocation at its LRM, through the call
// the controller's own orphan sweep makes, and marks the journal entry
// reaped. Failures leave the entry open for the next sweep; an entry whose
// RM does not parse can never be settled, so it is reaped as it stands.
func (inc *incarnation) reapEntry(e Entry) bool {
	f := inc.r.fed
	if rm, err := transport.ParseAddr(e.RM); err == nil {
		if err := inc.b.Controller().CancelContact(rm, e.Contact, f.tracer().Child(inc.ctx, "reap:", e.Key)); err != nil {
			inc.count("reap", "retry", 1)
			return false
		}
	}
	now := inc.now()
	inc.jour.upsert(e.Key, now, func(cur Entry) Entry {
		if cur.State != StateOpen {
			return cur
		}
		cur.State = StateReaped
		return cur
	})
	if e.HandoffAt > 0 {
		f.hists().H("fed.handoff.time").Record(int64(now - e.HandoffAt))
	}
	inc.count("reap", e.Kind, 1)
	return true
}
