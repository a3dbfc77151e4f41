package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
)

// smallSpec is a 6-machine grid behind a lone broker0 (replicas 0) or that
// many replicas.
func smallSpec(replicas int) Spec {
	return Spec{
		Seed:           5,
		Machines:       BatchSites(6, 16),
		Counts:         []int{4},
		WorkTime:       30 * time.Second,
		BarrierTimeout: 24 * time.Hour,
		Replicas:       replicas,
		Broker: &broker.Options{
			QueueBound:      2,
			Workers:         2,
			CacheMaxAge:     45 * time.Second,
			RefreshInterval: 40 * time.Second,
			RetryAfter:      15 * time.Second,
		},
	}
}

func request(i int, keyed bool) broker.Request {
	req := broker.Request{
		Tenant:       fmt.Sprintf("tenant%d", i%2),
		Sites:        2,
		ProcsPerSite: 4,
		Executable:   "app",
		Spares:       1,
	}
	if keyed {
		req.Key = fmt.Sprintf("req%02d", i)
	}
	return req
}

func hosts(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("client%02d", i)
	}
	return names
}

// TestTestbedRunsRepeat is the contract of the testbed, the client and the
// loop together: for a lone broker, one replica and three, under Poisson,
// scheduled and closed-loop load, five builds of the same spec export the
// same JSONL trace and the same counter table byte for byte. Counter totals
// repeat only because Run quiesces before it returns.
func TestTestbedRunsRepeat(t *testing.T) {
	loads := []struct {
		name string
		load func() Load
	}{
		{"poisson", func() Load {
			rng := rand.New(rand.NewSource(11))
			l := Load{Hosts: hosts(6)}
			at := 10 * time.Second
			for range l.Hosts {
				at += time.Duration(rng.ExpFloat64() / 12 * float64(time.Minute))
				l.Arrivals = append(l.Arrivals, at)
			}
			return l
		}},
		{"scheduled", func() Load {
			l := Load{Hosts: hosts(6)}
			for i := range l.Hosts {
				l.Arrivals = append(l.Arrivals, 10*time.Second+time.Duration(i)*7*time.Second)
			}
			return l
		}},
		{"closed", func() Load {
			return Load{
				Hosts:     hosts(2),
				Arrivals:  []time.Duration{10 * time.Second, 10*time.Second + 17*time.Millisecond},
				PerClient: 3,
			}
		}},
	}
	for _, replicas := range []int{0, 1, 3} {
		for _, l := range loads {
			t.Run(fmt.Sprintf("replicas%d/%s", replicas, l.name), func(t *testing.T) {
				var first []byte
				for run := 0; run < 5; run++ {
					tb := NewTestbed(smallSpec(replicas))
					load := l.load()
					load.Drain = 90 * time.Second
					per := max(load.PerClient, 1)
					tally, err := tb.Run(load, func(i, k int, host *transport.Host) bool {
						id := fmt.Sprintf("%s/r%d", host.Name(), k)
						reply, _, _, err := Submit(host, tb.Ring, i, id, request(i*per+k, replicas > 0), 0, 50, nil)
						return err == nil && reply.OK()
					})
					if err != nil {
						t.Fatal(err)
					}
					if want := len(load.Arrivals) * per; tally.Completed != want {
						t.Fatalf("run %d: %d of %d requests committed (%d failed)", run, tally.Completed, want, tally.Failed)
					}
					if tally.P50 <= 0 || tally.P99 < tally.P50 || tally.ThroughputPerMin <= 0 {
						t.Fatalf("run %d: implausible tally %+v", run, tally)
					}
					var out bytes.Buffer
					if err := tb.Grid.Tracer.WriteJSONL(&out); err != nil {
						t.Fatal(err)
					}
					out.WriteString(tb.Grid.Counters.String())
					if run == 0 {
						first = out.Bytes()
					} else if !bytes.Equal(first, out.Bytes()) {
						t.Fatalf("run %d exported a different trace or counter table than run 0", run)
					}
				}
			})
		}
	}
}

// TestObservingChangesNothingVirtual: a brokered grid run traced and the
// same grid run untraced take the same virtual course — the same timers
// fired, the same messages, every job's history and every request's
// latency equal — while the untraced run sends strictly fewer bytes, as its
// envelopes and subjob requests carry no span context.
func TestObservingChangesNothingVirtual(t *testing.T) {
	for _, replicas := range []int{0, 3} {
		t.Run(fmt.Sprintf("replicas%d", replicas), func(t *testing.T) {
			type run struct {
				timers, msgs, bytes int64
				histories           [][]core.Event
				latencies           map[string]time.Duration
			}
			play := func(traced bool) run {
				tb := newTestbed(smallSpec(replicas), traced)
				rng := rand.New(rand.NewSource(11))
				load := Load{Hosts: hosts(6), Drain: 90 * time.Second}
				at := 10 * time.Second
				for range load.Hosts {
					at += time.Duration(rng.ExpFloat64() / 12 * float64(time.Minute))
					load.Arrivals = append(load.Arrivals, at)
				}
				r := run{latencies: map[string]time.Duration{}}
				sim := tb.Grid.Sim
				tally, err := tb.Run(load, func(i, k int, host *transport.Host) bool {
					id := fmt.Sprintf("%s/r%d", host.Name(), k)
					start := sim.Now()
					reply, _, _, err := Submit(host, tb.Ring, i, id, request(i, replicas > 0), 0, 50, nil)
					r.latencies[id] = sim.Now() - start
					return err == nil && reply.OK()
				})
				if err != nil {
					t.Fatal(err)
				}
				if tally.Completed != len(load.Arrivals) {
					t.Fatalf("traced %t: %d of %d requests committed", traced, tally.Completed, len(load.Arrivals))
				}
				for _, j := range tb.jobs(nil) {
					r.histories = append(r.histories, j.History())
				}
				r.timers, r.msgs, r.bytes = sim.TimersFired(), tb.Grid.Net.Messages(), tb.Grid.Net.Bytes()
				return r
			}
			untraced, traced := play(false), play(true)
			if untraced.timers != traced.timers || untraced.msgs != traced.msgs {
				t.Errorf("untraced: %d timers, %d messages; traced: %d and %d",
					untraced.timers, untraced.msgs, traced.timers, traced.msgs)
			}
			if len(traced.histories) == 0 || !reflect.DeepEqual(untraced.histories, traced.histories) {
				t.Errorf("job histories differ, or there are none: %d jobs untraced, %d traced",
					len(untraced.histories), len(traced.histories))
			}
			if !reflect.DeepEqual(untraced.latencies, traced.latencies) {
				t.Errorf("request latencies untraced %v, traced %v", untraced.latencies, traced.latencies)
			}
			if untraced.bytes >= traced.bytes {
				t.Errorf("untraced run sent %d bytes, traced %d: want fewer untraced", untraced.bytes, traced.bytes)
			}
		})
	}
}

// rootsOf returns how many roots the request's causal tree has, and whether
// the analyzer reports the request at all.
func rootsOf(tb *Testbed, id string) (roots int, found bool) {
	for _, tree := range trace.Analyze(tb.Grid.Tracer.Events()).RequestTrees() {
		if tree.Req == id {
			return len(tree.Roots), true
		}
	}
	return 0, false
}

// A request that fails at dial still gets its client/request root span:
// without it the analyzer files the request's events under a rootless
// daemon tree and never reports it.
func TestSubmitRootsARequestThatFailsAtDial(t *testing.T) {
	tb := NewTestbed(smallSpec(0))
	load := Load{Hosts: []string{"client00"}, Arrivals: []time.Duration{10 * time.Second}}
	load.Before = func() { tb.Grid.Net.Host("broker0").Crash() }
	var failovers int
	var submitErr error
	tally, err := tb.Run(load, func(i, _ int, host *transport.Host) bool {
		_, _, failovers, submitErr = Submit(host, tb.Ring, 0, "lost", request(i, false), time.Minute, 5, nil)
		return submitErr == nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if submitErr == nil || failovers != 1 || tally.Failed != 1 {
		t.Fatalf("submit to a crashed broker: err %v, %d failovers, tally %+v", submitErr, failovers, tally)
	}
	if roots, found := rootsOf(tb, "lost"); !found || roots != 1 {
		t.Fatalf("request tree: found %v with %d roots, want one tree with exactly one root", found, roots)
	}
}

// With replica 0 down the walk moves on: the request is answered by replica
// 1 after exactly one failover, the observer sees the one failed hop, and
// the tree still has its single root.
func TestSubmitWalksPastADeadReplica(t *testing.T) {
	tb := NewTestbed(smallSpec(3))
	load := Load{Hosts: []string{"client00"}, Arrivals: []time.Duration{10 * time.Second}, Drain: 90 * time.Second}
	load.Before = tb.Fed.Replica(0).Crash
	var failovers, hops int
	tally, err := tb.Run(load, func(i, _ int, host *transport.Host) bool {
		var reply broker.Reply
		var err error
		reply, _, failovers, err = Submit(host, tb.Ring, 0, "walked", request(i, true), 0, 50,
			func(k int, dialed bool, err error) {
				if k != 0 || dialed || err == nil {
					t.Errorf("observer saw hop %d, dialed %v, err %v; want the failed dial of hop 0", k, dialed, err)
				}
				hops++
			})
		return err == nil && reply.OK()
	})
	if err != nil {
		t.Fatal(err)
	}
	if tally.Completed != 1 || failovers != 1 || hops != 1 {
		t.Fatalf("walk past a dead replica: tally %+v, %d failovers, %d observed hops", tally, failovers, hops)
	}
	if roots, found := rootsOf(tb, "walked"); !found || roots != 1 {
		t.Fatalf("request tree: found %v with %d roots, want one tree with exactly one root", found, roots)
	}
}

// No replica answering is an outcome too: every hop is a failover, the
// error is the last hop's, and the root span is still there.
func TestSubmitRootsAnUnansweredWalk(t *testing.T) {
	tb := NewTestbed(smallSpec(3))
	load := Load{Hosts: []string{"client00"}, Arrivals: []time.Duration{10 * time.Second}}
	load.Before = func() {
		for _, r := range tb.Fed.Replicas() {
			r.Crash()
		}
	}
	var failovers int
	var submitErr error
	if _, err := tb.Run(load, func(i, _ int, host *transport.Host) bool {
		_, _, failovers, submitErr = Submit(host, tb.Ring, 1, "unanswered", request(i, true), 0, 50, nil)
		return submitErr == nil
	}); err != nil {
		t.Fatal(err)
	}
	if submitErr == nil || failovers != 3 {
		t.Fatalf("walk of a dead ring: err %v, %d failovers, want an error after 3", submitErr, failovers)
	}
	if roots, found := rootsOf(tb, "unanswered"); !found || roots != 1 {
		t.Fatalf("request tree: found %v with %d roots, want one tree with exactly one root", found, roots)
	}
}

func TestPublishCounts(t *testing.T) {
	if got := fmt.Sprint(publishCounts([]int{8, 0, 4, 8, 16}, 16)); got != "[4 8 16]" {
		t.Errorf("publishCounts = %s, want the request sizes and the machine's own, each once, ascending", got)
	}
}

func TestMachinesOfAnUnbrokeredTestbed(t *testing.T) {
	tb := NewTestbed(Spec{Machines: BatchSites(2, 8)})
	if tb.Broker != nil || tb.Fed != nil || len(tb.Ring) != 0 || tb.Grid.Net.Host("mds0") != nil {
		t.Fatalf("a spec without Broker options built a broker or a directory: %+v", tb)
	}
	if got := fmt.Sprint(tb.Grid.Machines()); got != "[site00 site01]" {
		t.Errorf("machines = %s", got)
	}
}
