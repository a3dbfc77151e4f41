package federation

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mds"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

func TestShardRingConsistency(t *testing.T) {
	m := ShardMap{Version: 1, Replicas: []string{"fed00", "fed01", "fed02", "fed03"}, VNodes: defaultVNodes}
	ring := m.Ring()
	owned := make(map[string]int)
	owners := make(map[string]string)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("site%02d", i)
		o := ring.Owner(key)
		if o == "" {
			t.Fatalf("Owner(%s) empty", key)
		}
		owned[o]++
		owners[key] = o
	}
	for _, rep := range m.Replicas {
		if owned[rep] == 0 {
			t.Errorf("replica %s owns no keys out of 64", rep)
		}
	}
	// Determinism: a rebuilt ring assigns identically.
	again := m.Ring()
	for key, o := range owners {
		if got := again.Owner(key); got != o {
			t.Errorf("Owner(%s) = %s on rebuild, was %s", key, got, o)
		}
	}
	// Consistency: removing one replica only moves the removed replica's
	// keys.
	smaller := ShardMap{Version: 2, Replicas: []string{"fed00", "fed01", "fed03"}, VNodes: defaultVNodes}
	sring := smaller.Ring()
	for key, o := range owners {
		got := sring.Owner(key)
		if o != "fed02" && got != o {
			t.Errorf("Owner(%s) moved %s -> %s though its replica survived", key, o, got)
		}
		if o == "fed02" && got == "fed02" {
			t.Errorf("Owner(%s) still fed02 after removal", key)
		}
	}
}

func TestJournalReplication(t *testing.T) {
	leader := newJournal()
	follower := newJournal()

	// Follower records a local open, pushes it, leader sequences it.
	follower.upsert("t/x#req1", time.Second, func(e Entry) Entry {
		e.Kind = KindTicket
		e.Origin = "fed00"
		e.Owner = "fed00"
		e.State = StateOpen
		return e
	})
	for _, e := range follower.pending() {
		leader.leaderAccept(e)
	}
	suffix, n := leader.logSuffix(0)
	if n != 1 || len(suffix) != 1 || suffix[0].Seq != 1 {
		t.Fatalf("leader log = %+v (len %d), want one entry seq 1", suffix, n)
	}
	// The broadcast drains the follower's unacked buffer.
	follower.applyBroadcast(suffix)
	if p := follower.pending(); len(p) != 0 {
		t.Fatalf("follower still has %d unacked after broadcast", len(p))
	}

	// A state advance re-pushed twice is ordered once.
	follower.upsert("t/x#req1", 2*time.Second, func(e Entry) Entry {
		e.State = StateClosed
		e.Committed = true
		e.JobID = "job1"
		return e
	})
	pend := follower.pending()
	for _, e := range pend {
		leader.leaderAccept(e)
		leader.leaderAccept(e)
	}
	if _, n := leader.logSuffix(0); n != 2 {
		t.Fatalf("leader log length = %d after duplicate push, want 2", n)
	}
	got, _ := leader.get("t/x#req1")
	if got.State != StateClosed || !got.Committed || got.JobID != "job1" {
		t.Fatalf("leader entry = %+v, want closed committed job1", got)
	}

	// Merge never regresses: replaying the stale open copy changes nothing.
	stale := Entry{Key: "t/x#req1", Kind: KindTicket, State: StateOpen, Rev: 1}
	if leader.merge(stale) {
		t.Fatal("merge accepted a stale lower-revision copy")
	}

	// becomeLeader rebuilds a dense log from the entry map.
	follower.applyBroadcast(suffix)
	follower.merge(got)
	follower.becomeLeader()
	log, n := follower.logSuffix(0)
	if n != 1 || log[0].Seq != 1 || log[0].State != StateClosed {
		t.Fatalf("rebuilt log = %+v, want single closed entry seq 1", log)
	}
}

// fedRig is a grid with a directory, publishing machines, and a running
// federation.
type fedRig struct {
	g   *grid.Grid
	dir transport.Addr
	fed *Federation
}

func newFedRig(t *testing.T, seed int64, replicas, machines, procs int, workTime time.Duration) *fedRig {
	t.Helper()
	g := grid.New(grid.Options{Seed: seed, Trace: true})
	dirHost := g.Net.AddHost("mds0")
	if _, err := mds.NewServer(dirHost, 0); err != nil {
		t.Fatalf("mds.NewServer: %v", err)
	}
	dir := transport.Addr{Host: "mds0", Service: mds.ServiceName}
	for i := 0; i < machines; i++ {
		name := fmt.Sprintf("site%02d", i)
		m := g.AddMachine(name, procs, lrm.Fork)
		mds.Publish(m, dir, g.Contact(name), 31*time.Second, 4, 8, procs)
	}
	g.RegisterEverywhere("app", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.Barrier(true, "", 0); err != nil {
			return nil
		}
		return p.Work(workTime, workTime)
	})
	fed, err := New(g.Net, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	}, Options{
		Replicas:  replicas,
		Directory: dir,
		Broker:    broker.Options{Workers: 2},
	})
	if err != nil {
		t.Fatalf("federation.New: %v", err)
	}
	return &fedRig{g: g, dir: dir, fed: fed}
}

// submit dials the given replica and submits one keyed request; errors
// are reported through the reply (simulated goroutines must not Fatalf).
func (r *fedRig) submit(rep *Replica, key string, sites, procs int) broker.Reply {
	c, err := broker.DialCtx(r.g.Workstation, rep.BrokerContact(), trace.NewRequest(key))
	if err != nil {
		return broker.Reply{Error: err.Error()}
	}
	defer c.Close()
	reply, _, err := c.SubmitWait(broker.Request{
		Tenant:       "tenant0",
		Sites:        sites,
		ProcsPerSite: procs,
		Executable:   "app",
		Key:          key,
	}, 30*time.Minute, 50)
	if err != nil {
		reply.Error = err.Error()
	}
	return reply
}

func TestFederationCommitsAcrossReplicas(t *testing.T) {
	r := newFedRig(t, 1, 2, 6, 16, time.Second)
	const reqs = 4
	replies := make([]broker.Reply, reqs)
	err := r.g.Sim.Run("main", func() {
		wg := vtime.NewWaitGroup(r.g.Sim)
		for i := 0; i < reqs; i++ {
			i := i
			wg.Add(1)
			r.g.Sim.GoDaemon(fmt.Sprintf("client%d", i), func() {
				defer wg.Done()
				r.g.Sim.Sleep(40*time.Second + time.Duration(i)*111*time.Millisecond)
				replies[i] = r.submit(r.fed.Replica(i%2), fmt.Sprintf("req%d", i), 2, 4)
			})
		}
		wg.Wait()
		// Let heartbeats replicate the final ticket states.
		r.g.Sim.Sleep(time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	for i, reply := range replies {
		if !reply.OK() {
			t.Errorf("req%d: %+v", i, reply)
		}
	}
	committed := make(map[string]int)
	for _, e := range r.fed.MergedJournal() {
		if e.Kind == KindTicket && e.State == StateOpen {
			t.Errorf("ticket %s still open after quiescence", e.Key)
		}
		if e.Kind == KindTicket && e.Committed {
			committed[e.ReqKey]++
		}
	}
	for i := 0; i < reqs; i++ {
		key := fmt.Sprintf("req%d", i)
		if committed[key] != 1 {
			t.Errorf("req key %s committed %d times, want 1", key, committed[key])
		}
	}
}

func TestLeaderElectionOnLeaderCrash(t *testing.T) {
	r := newFedRig(t, 2, 3, 4, 8, time.Second)
	err := r.g.Sim.Run("main", func() {
		r.g.Sim.Sleep(30 * time.Second)
		if got := r.fed.Replica(0).LeaderName(); got != "fed02" {
			t.Errorf("initial leader seen by fed00 = %q, want fed02", got)
		}
		r.fed.Replica(2).Crash()
		// Lease expiry (17s) + election + a few heartbeats.
		r.g.Sim.Sleep(2 * time.Minute)
		for i := 0; i < 2; i++ {
			if got := r.fed.Replica(i).LeaderName(); got != "fed01" {
				t.Errorf("leader seen by fed%02d = %q, want fed01", i, got)
			}
		}
		m := r.fed.Replica(0).ShardMapView()
		if len(m.Replicas) != 2 || m.Leader != "fed01" {
			t.Errorf("shard map after election = %+v, want 2 replicas led by fed01", m)
		}
		// The crashed replica rejoins and is re-admitted to the ring.
		if err := r.fed.Replica(2).Restart(); err != nil {
			t.Errorf("Restart: %v", err)
		}
		r.g.Sim.Sleep(2 * time.Minute)
		m = r.fed.Replica(2).ShardMapView()
		if len(m.Replicas) != 3 {
			t.Errorf("shard map after rejoin = %+v, want 3 replicas", m)
		}
		if got := r.fed.Replica(2).LeaderName(); got != "fed01" {
			t.Errorf("leader seen by rejoined fed02 = %q, want fed01", got)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if wins := r.g.Counters.Get(trace.Key("fed", "election", "win", "fed01")); wins == 0 {
		t.Error("fed01 recorded no election win")
	}
}

func TestForwardingAcrossShards(t *testing.T) {
	r := newFedRig(t, 3, 2, 8, 16, time.Second)
	// Work out the shard split the federation starts with and aim the
	// request at the replica owning the smaller shard, asking for more
	// sites than it owns.
	m := r.fed.Replica(0).ShardMapView()
	owned := map[string][]string{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("site%02d", i)
		owned[m.Owner(name)] = append(owned[m.Owner(name)], name)
	}
	small, large := r.fed.Replica(0), r.fed.Replica(1)
	if len(owned[small.Name()]) > len(owned[large.Name()]) {
		small, large = large, small
	}
	sites := len(owned[small.Name()]) + 1
	if sites > len(owned[large.Name()]) {
		t.Skipf("shard split %d/%d leaves no forwardable gap", len(owned[small.Name()]), len(owned[large.Name()]))
	}
	var reply broker.Reply
	err := r.g.Sim.Run("main", func() {
		r.g.Sim.Sleep(40 * time.Second)
		reply = r.submit(small, "fwd1", sites, 4)
		r.g.Sim.Sleep(time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !reply.OK() {
		t.Fatalf("forwarded request failed: %+v", reply)
	}
	if reply.Hops != 1 {
		t.Errorf("reply.Hops = %d, want 1", reply.Hops)
	}
	if n := r.g.Counters.Get(trace.Key("fed", "forward", "commit", small.Name())); n != 1 {
		t.Errorf("forward commit counter = %d, want 1", n)
	}
	// The origin's ticket closed as forwarded (uncommitted locally); the
	// serving replica committed its own ticket under the same key.
	committed := 0
	for _, e := range r.fed.MergedJournal() {
		if e.Kind == KindTicket && e.ReqKey == "fwd1" && e.Committed {
			committed++
			if e.Origin != large.Name() {
				t.Errorf("committed ticket origin = %s, want %s", e.Origin, large.Name())
			}
		}
	}
	if committed != 1 {
		t.Errorf("committed tickets for fwd1 = %d, want 1", committed)
	}
}

func TestHandoffReapsDeadReplicasAllocations(t *testing.T) {
	// Long-running work so allocations are live when the owner dies.
	r := newFedRig(t, 4, 3, 6, 16, 30*time.Minute)
	var victim *Replica
	var reply broker.Reply
	err := r.g.Sim.Run("main", func() {
		r.g.Sim.Sleep(40 * time.Second)
		victim = r.fed.Replica(0)
		reply = r.submit(victim, "doomed", 2, 4)
		if !reply.OK() {
			return
		}
		// Let the pusher replicate the allocations, then kill the owner.
		r.g.Sim.Sleep(20 * time.Second)
		victim.Crash()
		// Death detection (3 missed beats) + handoff + a reap sweep.
		r.g.Sim.Sleep(5 * time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !reply.OK() {
		t.Fatalf("setup submit failed: %+v", reply)
	}
	openLeft := 0
	reaped := 0
	for _, e := range r.fed.MergedJournal() {
		if e.State == StateOpen {
			openLeft++
			t.Errorf("entry %s (owner %s) still open after handoff window", e.Key, e.Owner)
		}
		if e.Kind == KindAlloc && e.State == StateReaped {
			reaped++
			if e.Owner == victim.Name() {
				t.Errorf("reaped alloc %s still owned by dead %s", e.Key, e.Owner)
			}
		}
	}
	if reaped == 0 {
		t.Error("no allocation was reaped by a surviving peer")
	}
	// The reaped jobs actually released their processors.
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("site%02d", i)
		if free := r.g.Machine(name).FreeProcessors(); free != 16 {
			t.Errorf("%s: %d processors free after reap, want 16", name, free)
		}
	}
	_ = openLeft
}

// fedWorkload runs a fixed federation workload and returns the counter
// snapshot and merged journal bytes.
func fedWorkload(t *testing.T, seed int64) (string, string) {
	t.Helper()
	r := newFedRig(t, seed, 3, 6, 16, time.Second)
	err := r.g.Sim.Run("main", func() {
		wg := vtime.NewWaitGroup(r.g.Sim)
		for i := 0; i < 6; i++ {
			i := i
			wg.Add(1)
			r.g.Sim.GoDaemon(fmt.Sprintf("client%d", i), func() {
				defer wg.Done()
				r.g.Sim.Sleep(40*time.Second + time.Duration(i)*211*time.Millisecond)
				r.submit(r.fed.Replica(i%3), fmt.Sprintf("req%d", i), 2, 4)
			})
		}
		wg.Wait()
		r.g.Sim.Sleep(90 * time.Second)
		r.fed.Replica(1).Crash()
		r.g.Sim.Sleep(3 * time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	jour, err := json.Marshal(r.fed.MergedJournal())
	if err != nil {
		t.Fatalf("marshal journal: %v", err)
	}
	return r.g.Counters.String(), string(jour)
}

func TestFederationDeterministic(t *testing.T) {
	c1, j1 := fedWorkload(t, 7)
	c2, j2 := fedWorkload(t, 7)
	if c1 != c2 {
		t.Errorf("counter snapshots differ across same-seed runs:\n--- run1\n%s\n--- run2\n%s", c1, c2)
	}
	if j1 != j2 {
		t.Errorf("merged journals differ across same-seed runs:\n--- run1\n%s\n--- run2\n%s", j1, j2)
	}
}
