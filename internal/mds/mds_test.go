package mds_test

import (
	"testing"
	"time"

	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mds"
	"cogrid/internal/transport"
)

func setup(t *testing.T) (*grid.Grid, transport.Addr) {
	t.Helper()
	g := grid.New(grid.Options{})
	dirHost := g.Net.AddHost("mds0")
	if _, err := mds.NewServer(dirHost, 0); err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return g, transport.Addr{Host: "mds0", Service: mds.ServiceName}
}

func TestRegisterAndQuery(t *testing.T) {
	g, dir := setup(t)
	err := g.Sim.Run("main", func() {
		c, err := mds.Dial(g.Workstation, dir)
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		for _, rec := range []mds.Record{
			{Name: "sp2", Contact: "sp2:gram", Processors: 128, Mode: "batch", FreeProcessors: 0},
			{Name: "origin", Contact: "origin:gram", Processors: 64, Mode: "fork", FreeProcessors: 64},
			{Name: "cluster", Contact: "cluster:gram", Processors: 16, Mode: "batch", FreeProcessors: 8},
		} {
			if err := c.Register(rec); err != nil {
				t.Errorf("Register %s: %v", rec.Name, err)
			}
		}
		all, err := c.Query(mds.Filter{})
		if err != nil || len(all) != 3 {
			t.Errorf("Query all = %d records, %v", len(all), err)
		}
		big, err := c.Query(mds.Filter{MinProcessors: 64})
		if err != nil || len(big) != 2 {
			t.Errorf("Query min 64 = %v, %v", big, err)
		}
		batch, err := c.Query(mds.Filter{Mode: "batch"})
		if err != nil || len(batch) != 2 {
			t.Errorf("Query batch = %v, %v", batch, err)
		}
		free, err := c.Query(mds.Filter{MinFree: 8})
		if err != nil || len(free) != 2 {
			t.Errorf("Query free = %v, %v", free, err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestRecordsExpire(t *testing.T) {
	g, dir := setup(t)
	err := g.Sim.Run("main", func() {
		c, err := mds.Dial(g.Workstation, dir)
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		c.Register(mds.Record{Name: "stale", Processors: 8})
		g.Sim.Sleep(2 * time.Minute)
		c.Register(mds.Record{Name: "fresh", Processors: 8})
		g.Sim.Sleep(4 * time.Minute) // stale now 6m old, fresh 4m; TTL 5m
		recs, err := c.Query(mds.Filter{})
		if err != nil || len(recs) != 1 || recs[0].Name != "fresh" {
			t.Errorf("Query = %v, %v; want only fresh", recs, err)
		}
		// An explicit shorter MaxAge excludes fresh too.
		recs, _ = c.Query(mds.Filter{MaxAge: time.Minute})
		if len(recs) != 0 {
			t.Errorf("MaxAge 1m returned %v", recs)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestTTLExpiryRacesConcurrentPublishes drives TTL expiry against
// concurrent re-registrations and refreshing readers (run under -race by
// the check gate): a fast publisher republishes well inside the TTL, a
// slow one republishes at an interval longer than the TTL so its record
// flaps in and out of visibility, while two query clients poll
// throughout. The TTL invariant must hold at every observation — no query
// ever returns a record older than the TTL — and both visibility states
// of the slow record must actually occur.
func TestTTLExpiryRacesConcurrentPublishes(t *testing.T) {
	const ttl = 50 * time.Second
	g := grid.New(grid.Options{})
	dirHost := g.Net.AddHost("mds0")
	if _, err := mds.NewServer(dirHost, ttl); err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	dir := transport.Addr{Host: "mds0", Service: mds.ServiceName}

	type observation struct {
		at    time.Duration
		names map[string]time.Duration // name -> record age at query time
	}
	var obs []observation

	const horizon = 5 * time.Minute
	publisher := func(host *transport.Host, name string, interval time.Duration) {
		g.Sim.GoDaemon("pub:"+name, func() {
			for g.Sim.Now() < horizon {
				c, err := mds.Dial(host, dir)
				if err == nil {
					c.Register(mds.Record{Name: name, Contact: name + ":gram", Processors: 8})
					c.Close()
				}
				g.Sim.Sleep(interval)
			}
		})
	}
	querier := func(host *transport.Host, every time.Duration) {
		g.Sim.GoDaemon("query:"+host.Name(), func() {
			for g.Sim.Now() < horizon {
				g.Sim.Sleep(every)
				c, err := mds.Dial(host, dir)
				if err != nil {
					continue
				}
				recs, err := c.Query(mds.Filter{})
				c.Close()
				if err != nil {
					continue
				}
				o := observation{at: g.Sim.Now(), names: map[string]time.Duration{}}
				for _, rec := range recs {
					o.names[rec.Name] = g.Sim.Now() - rec.UpdatedAt
				}
				obs = append(obs, o)
			}
		})
	}

	err := g.Sim.Run("main", func() {
		publisher(g.Net.AddHost("pub-fast"), "fast", 20*time.Second)
		publisher(g.Net.AddHost("pub-slow"), "slow", 80*time.Second) // > TTL: flaps
		querier(g.Net.AddHost("q1"), 7*time.Second)
		querier(g.Net.AddHost("q2"), 11*time.Second)
		g.Sim.SleepUntil(horizon + time.Second)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}

	if len(obs) < 20 {
		t.Fatalf("only %d observations", len(obs))
	}
	slowSeen, slowMissing := false, false
	for _, o := range obs {
		for name, age := range o.names {
			// The RPC takes a couple of network hops, so allow the
			// record to age marginally past the TTL in transit.
			if age > ttl+time.Second {
				t.Errorf("t=%v: query returned %s aged %v, past TTL %v", o.at, name, age, ttl)
			}
		}
		if o.at > 30*time.Second { // fast publisher established by then
			if _, ok := o.names["fast"]; !ok {
				t.Errorf("t=%v: fast record missing (republishes every 20s)", o.at)
			}
		}
		if _, ok := o.names["slow"]; ok {
			slowSeen = true
		} else if o.at > time.Second {
			slowMissing = true
		}
	}
	if !slowSeen || !slowMissing {
		t.Errorf("slow record should flap: seen=%v missing=%v over %d observations",
			slowSeen, slowMissing, len(obs))
	}
}

func TestRegisterWithoutNameRejected(t *testing.T) {
	g, dir := setup(t)
	err := g.Sim.Run("main", func() {
		c, err := mds.Dial(g.Workstation, dir)
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		if err := c.Register(mds.Record{Processors: 4}); err == nil {
			t.Error("nameless record accepted")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestRecordForAndPublish(t *testing.T) {
	g, dir := setup(t)
	m := g.AddMachine("batch1", 32, lrm.Batch)
	m.RegisterExecutable("work", func(p *lrm.Proc) error {
		return p.Work(time.Hour, time.Second)
	})
	err := g.Sim.Run("main", func() {
		// The first job fills the machine; the second waits behind it.
		for _, count := range []int{32, 16} {
			if _, err := m.Submit(lrm.JobSpec{Executable: "work", Count: count, TimeLimit: 2 * time.Hour}); err != nil {
				t.Errorf("Submit %d: %v", count, err)
				return
			}
		}
		rec := mds.RecordFor(m, g.Contact("batch1"), 1, 32)
		if rec.Name != "batch1" || rec.Processors != 32 || rec.FreeProcessors != 0 ||
			rec.RunningJobs != 1 || rec.QueuedJobs != 1 {
			t.Errorf("RecordFor = %+v", rec)
		}
		if rec.ForecastWait[32] <= 0 {
			t.Errorf("forecast for 32 procs = %v, want positive (machine full)", rec.ForecastWait[32])
		}
		stop := mds.Publish(m, dir, g.Contact("batch1"), 30*time.Second, 32)
		g.Sim.Sleep(time.Minute)
		c, err := mds.Dial(g.Workstation, dir)
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer c.Close()
		recs, err := c.Query(mds.Filter{})
		if err != nil || len(recs) != 1 {
			t.Errorf("Query after publish = %v, %v", recs, err)
			return
		}
		if recs[0].Name != "batch1" || recs[0].QueuedJobs != 1 || recs[0].ForecastWait[32] <= 0 {
			t.Errorf("published record = %+v", recs[0])
		}
		stop()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
