package main

import (
	"fmt"
	"sync"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/federation"
	"cogrid/internal/transport"
	"cogrid/internal/workload"
)

// runFederationDemo runs the built-in federation scenario: a three-replica
// broker group over six batch machines, with keyed requests spread
// round-robin across the replicas. Mid-run the leader is crashed and later
// restarted: the survivors elect a new leader, take over the dead
// replica's shard, adopt its journal entries, and the crashed replica's
// clients fail over to the next replica in the ring. The output narrates
// each commit, the crash, and the post-run journal so the replication
// machinery is visible end to end. Observability outputs follow opts.
func runFederationDemo(opts runOptions) error {
	const (
		machines     = 6
		procs        = 16
		replicas     = 3
		workTime     = 90 * time.Second
		sites        = 2
		procsPerSite = 4
		requests     = 9
		crashAt      = 45 * time.Second
		outage       = 2 * time.Minute
	)
	tb := workload.NewTestbed(workload.Spec{
		Seed:     7,
		Machines: workload.BatchSites(machines, procs),
		Counts:   []int{procsPerSite},
		WorkTime: workTime,
		Replicas: replicas,
		Broker:   &broker.Options{QueueBound: 4, Workers: 2, RetryAfter: 15 * time.Second},
	})
	g, fed := tb.Grid, tb.Fed
	leader := fed.Replica(replicas - 1) // highest id wins the first election
	fmt.Printf("federation demo: %d broker replicas over %d batch machines x %d procs\n",
		replicas, machines, procs)
	fmt.Printf("requests: %d sites x %d processes, keyed, round-robin across replicas\n", sites, procsPerSite)
	fmt.Printf("schedule: leader %s crashes at t=%v, restarts at t=%v\n\n",
		leader.Name(), crashAt, crashAt+outage)

	// Let the running jobs drain (and, the testbed's part, the peer reaper
	// settle any entries the crash handed off), so the journal below is final.
	load := workload.Load{
		Faults: []workload.Fault{{Kind: "broker-crash", Target: leader.Name(), At: crashAt, Dur: outage}},
		Drain:  workTime + time.Minute,
	}
	for i := 0; i < requests; i++ {
		load.Hosts = append(load.Hosts, fmt.Sprintf("client%02d", i))
		load.Arrivals = append(load.Arrivals, 10*time.Second+time.Duration(i)*7*time.Second)
	}
	var mu sync.Mutex
	load.Before = func() {
		// The testbed crashes and restarts the leader; this only narrates,
		// woken just after each.
		g.Sim.GoDaemon("demo-narration", func() {
			g.Sim.SleepUntil(crashAt)
			mu.Lock()
			fmt.Printf("t=%-8v !! crashing %s (current leader)\n", g.Sim.Now(), leader.Name())
			mu.Unlock()
			g.Sim.SleepUntil(crashAt + outage)
			mu.Lock()
			fmt.Printf("t=%-8v !! %s restarted; it rejoins as a follower and re-bootstraps the shard map\n",
				g.Sim.Now(), leader.Name())
			mu.Unlock()
		})
	}
	_, simErr := tb.Run(load, func(i, _ int, host *transport.Host) bool {
		req := broker.Request{
			Tenant:       fmt.Sprintf("tenant-%c", 'a'+i%3),
			Sites:        sites,
			ProcsPerSite: procsPerSite,
			Executable:   "app",
			Spares:       1,
			Key:          fmt.Sprintf("req%02d", i),
		}
		// The client walks the ring from its home replica until one
		// answers; the demo only narrates the hops that failed.
		reply, rejects, failovers, err := workload.Submit(host, tb.Ring, i, host.Name(), req, 0, 20,
			func(k int, dialed bool, err error) {
				mu.Lock()
				defer mu.Unlock()
				r := fed.Replica((i + k) % replicas)
				if dialed {
					fmt.Printf("t=%-8v %s: %s died mid-request (%v), failing over\n",
						g.Sim.Now(), req.Key, r.Name(), err)
					return
				}
				fmt.Printf("t=%-8v %s: %s unreachable (%v), failing over to %s\n",
					g.Sim.Now(), req.Key, r.Name(), err, fed.Replica((i+k+1)%replicas).Name())
			})
		mu.Lock()
		defer mu.Unlock()
		r := fed.Replica((i + failovers) % replicas)
		switch {
		case err != nil:
			fmt.Printf("t=%-8v %s: no replica reachable\n", g.Sim.Now(), req.Key)
		case !reply.OK():
			fmt.Printf("t=%-8v %s via %s: FAILED: %s\n", g.Sim.Now(), req.Key, r.Name(), reply.Error)
		default:
			via := ""
			if reply.Hops > 0 {
				via = fmt.Sprintf(", %d forward(s)", reply.Hops)
			}
			fmt.Printf("t=%-8v %s via %s: committed job %s (%d procs, %d reject(s)%s, leader now %s)\n",
				g.Sim.Now(), req.Key, r.Name(), reply.JobID, reply.WorldSize,
				rejects, via, r.LeaderName())
		}
		return err == nil && reply.OK()
	})

	fmt.Println()
	byState := map[string]int{}
	handedOff := 0
	for _, e := range fed.MergedJournal() {
		byState[e.State]++
		if e.HandoffAt > 0 {
			handedOff++
		}
	}
	fmt.Printf("replicated journal: %d open / %d closed / %d reaped; %d entr(ies) handed off after the crash\n",
		byState[federation.StateOpen], byState[federation.StateClosed],
		byState[federation.StateReaped], handedOff)
	for _, r := range fed.Replicas() {
		fmt.Printf("  %s alive=%-5v sees leader %s\n", r.Name(), r.Alive(), r.LeaderName())
	}
	if err := writeOutputs(g, opts); err != nil {
		return err
	}
	if simErr != nil {
		return simErr
	}
	return audit(tb)
}
