package federation

import (
	"fmt"
	"sort"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/trace"
)

// forwardSubmitMargin bounds a forwarded submission when the original
// request carries no deadline.
const forwardSubmitMargin = 30 * time.Minute

// forward offers a request this replica's shard could not host to the
// peer whose shard looks most able to take it. The choice is made from
// the local directory view: for each peer, count its owned machines with
// enough free processors; a peer qualifies when it owns at least Sites
// such machines.
//
// Outcome semantics match the broker's contract: a committed reply is
// final; ErrForwardUnavailable (no peer worth trying) resumes the local
// retry policy; a definitive peer failure is returned as an ordinary
// error (also resuming local retries); an unacknowledged submission
// returns ErrForwardIndeterminate, which terminates the request — the
// peer may have committed, so any retry risks a second allocation under
// the same key.
func (inc *incarnation) forward(req broker.Request, ctx trace.Ctx) (broker.Reply, error) {
	f := inc.r.fed
	if req.Hops >= maxHops {
		return broker.Reply{}, broker.ErrForwardUnavailable
	}
	shard := inc.shard
	ring := inc.shardRing
	if ring == nil || len(shard.Replicas) < 2 {
		return broker.Reply{}, broker.ErrForwardUnavailable
	}

	records, fetchedAt := inc.b.CacheView()
	score := make(map[string]int)
	for _, rec := range records {
		if rec.FreeProcessors < req.ProcsPerSite {
			continue
		}
		if owner := ring.Owner(rec.Name); owner != inc.r.name {
			score[owner]++
		}
	}
	peers := append([]string(nil), shard.Replicas...)
	sort.Strings(peers)
	best := ""
	for _, p := range peers {
		if p == inc.r.name || score[p] < req.Sites {
			continue
		}
		if best == "" || score[p] > score[best] {
			best = p
		}
	}
	if best == "" {
		inc.count("forward", "no-peer", 1)
		return broker.Reply{}, broker.ErrForwardUnavailable
	}

	fwdReq := req
	fwdReq.Hops = req.Hops + 1
	if fwdReq.Origin == "" {
		fwdReq.Origin = inc.r.name
	}
	if fetchedAt > fwdReq.ViewAsOf {
		// The peer must answer from a view at least as fresh as the one
		// that justified sending it this request.
		fwdReq.ViewAsOf = fetchedAt
	}
	timeout := forwardSubmitMargin
	if req.Deadline > 0 {
		timeout = req.Deadline - f.sim.Now()
		if timeout <= 0 {
			return broker.Reply{}, broker.ErrForwardUnavailable
		}
	}

	c, err := broker.DialCtx(inc.r.host, inc.r.fed.brokerAddr(best), ctx)
	if err != nil {
		// Nothing reached the peer: failing the forward is definitive.
		inc.count("forward", "dial-error", 1)
		return broker.Reply{}, fmt.Errorf("fed: forward dial %s: %v", best, err)
	}
	defer c.Close()
	inc.count("forward", "send", 1)
	reply, err := c.Submit(fwdReq, timeout)
	if err != nil {
		// The request left this process; whether the peer committed is
		// unknowable from here.
		inc.count("forward", "indeterminate", 1)
		return broker.Reply{}, fmt.Errorf("%w: peer %s: %v", broker.ErrForwardIndeterminate, best, err)
	}
	if !reply.Accepted {
		inc.count("forward", "peer-reject", 1)
		return broker.Reply{}, fmt.Errorf("fed: peer %s rejected admission", best)
	}
	if reply.Error != "" {
		inc.count("forward", "peer-fail", 1)
		return broker.Reply{}, fmt.Errorf("fed: peer %s: %s", best, reply.Error)
	}
	inc.count("forward", "commit", 1)
	f.hists().H("fed.forward.hops").Record(int64(reply.Hops + 1))
	return reply, nil
}
