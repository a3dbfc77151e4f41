package broker

import (
	"strconv"
	"time"

	"cogrid/internal/mds"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// cache is the broker's staleness-aware view of the directory. A refresh
// daemon re-queries the MDS every interval; lookups served within the
// staleness bound are hits, older ones refresh synchronously before
// answering. This replaces the per-request directory query of the
// in-process agents — the paper's [14] point that load information is
// only worth acting on while it remains valid, applied as a cache policy.
//
// Staleness is keyed per requesting replica id, not per process: a
// forwarded request carries the fetch time of the view its origin
// replica decided on (Request.ViewAsOf), and a lookup on the origin's
// behalf is only a hit if the local copy is at least that fresh — a
// forward is never answered from a view staler than the one that
// justified it. Hit/stale counters are likewise attributed to the
// origin replica (broker.cache.hit@<replica-id>), so a federation's
// cache behavior reads per decider, not per serving process.
type cache struct {
	sim      *vtime.Sim
	host     *transport.Host
	replica  string // owning replica id: scope for refresh counters
	dir      transport.Addr
	maxAge   time.Duration
	interval time.Duration
	stop     *vtime.Event
	// ctx roots the cache's own causal tree: refreshes are broker-side
	// maintenance, not part of any one tenant request. All refresh spans
	// merge under a single child node.
	ctx trace.Ctx

	records   []mds.Record
	fetchedAt time.Duration
	have      bool
}

func newCache(host *transport.Host, replica string, dir transport.Addr, maxAge, interval time.Duration) *cache {
	sim := host.Network().Sim()
	if replica == "" {
		replica = host.Name()
	}
	c := &cache{
		sim:      sim,
		host:     host,
		replica:  replica,
		dir:      dir,
		maxAge:   maxAge,
		interval: interval,
		stop:     vtime.NewEvent(sim, "broker-cache-stop:"+host.Name()),
		ctx:      host.Network().Tracer().Child(trace.NewRequest("cache@"+host.Name()), "refresh"),
	}
	sim.GoDaemon("broker-cache:"+host.Name(), func() {
		// The offset keeps periodic refreshes off the instants where
		// publishers re-register, so a refresh never races a register
		// at the directory within one virtual instant.
		if c.stop.WaitTimeout(refreshOffset) {
			return
		}
		for {
			c.refresh()
			if c.stop.WaitTimeout(c.interval) {
				return
			}
		}
	})
	return c
}

func (c *cache) stopRefresh() { c.stop.Set() }

// refresh queries the directory and replaces the cached records. Failures
// (directory unreachable) keep the previous records; staleness accounting
// surfaces the gap.
func (c *cache) refresh() {
	start := c.sim.Now()
	client, err := mds.DialCtx(c.host, c.dir, c.ctx)
	if err != nil {
		c.count("refresh-error", c.replica, 1)
		return
	}
	records, err := client.Query(mds.Filter{})
	client.Close()
	if err != nil {
		c.count("refresh-error", c.replica, 1)
		return
	}
	c.records = records
	c.fetchedAt = c.sim.Now()
	c.have = true
	c.count("refresh", c.replica, 1)
	c.host.Network().Tracer().SpanCtx(c.ctx, "broker", "cache-refresh", c.host.Name(), "cache", "", start,
		trace.Arg{Key: "records", Val: strconv.Itoa(len(records))})
}

// get returns the cached records on behalf of the given replica id,
// refreshing synchronously when the copy is older than the staleness
// bound, absent, or fetched before asOf (the view floor a forwarding
// replica demands). Counters classify every lookup as hit or stale under
// the requesting replica's key.
func (c *cache) get(origin string, asOf time.Duration) []mds.Record {
	if origin == "" {
		origin = c.replica
	}
	if c.have && c.sim.Now()-c.fetchedAt <= c.maxAge && c.fetchedAt >= asOf {
		c.count("hit", origin, 1)
		return c.records
	}
	c.count("stale", origin, 1)
	c.refresh()
	return c.records
}

// peek returns the cached records, their age, and the fetch time without
// refreshing.
func (c *cache) peek() ([]mds.Record, time.Duration) {
	records, _, age := c.view()
	return records, age
}

// view returns the cached records with their fetch time and age.
func (c *cache) view() ([]mds.Record, time.Duration, time.Duration) {
	if !c.have {
		return nil, 0, 0
	}
	return c.records, c.fetchedAt, c.sim.Now() - c.fetchedAt
}

func (c *cache) count(verb, scope string, delta int64) {
	c.host.Network().Counters().AddKey("broker", "cache", verb, scope, delta)
}
