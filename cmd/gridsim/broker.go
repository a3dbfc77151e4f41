package main

import (
	"fmt"
	"time"

	"cogrid/internal/broker"
	"cogrid/internal/transport"
	"cogrid/internal/workload"
)

// runBrokerDemo runs the built-in broker scenario: four batch machines
// publishing to a directory, a 2-worker broker with a deliberately small
// admission queue, and three tenants submitting co-allocations — one of
// them flooding, so backpressure and round-robin fairness are visible in
// the output. Observability outputs (trace, counters) follow opts.
func runBrokerDemo(opts runOptions) error {
	const (
		machines     = 4
		procs        = 32
		workTime     = 90 * time.Second
		sites        = 2
		procsPerSite = 8
	)
	tb := workload.NewTestbed(workload.Spec{
		Seed:     7,
		Machines: workload.BatchSites(machines, procs),
		Counts:   []int{procsPerSite},
		WorkTime: workTime,
		Broker:   &broker.Options{QueueBound: 3, Workers: 2, RetryAfter: 15 * time.Second},
	})
	g := tb.Grid
	fmt.Printf("broker demo: %d batch machines x %d procs, broker queue bound 3, 2 workers\n",
		machines, procs)
	fmt.Printf("requests: %d sites x %d processes each; tenant-a floods 5, b and c send 1\n\n",
		sites, procsPerSite)

	var tenants []string
	// Let the committed jobs run out and their final state callbacks land.
	load := workload.Load{Drain: workTime + time.Minute}
	add := func(tenant string, at time.Duration) {
		load.Hosts = append(load.Hosts, fmt.Sprintf("%s-%d", tenant, len(tenants)))
		load.Arrivals = append(load.Arrivals, at)
		tenants = append(tenants, tenant)
	}
	for i := 0; i < 5; i++ {
		add("tenant-a", 10*time.Second+time.Duration(i)*100*time.Millisecond)
	}
	add("tenant-b", 11*time.Second)
	add("tenant-c", 12*time.Second)

	_, simErr := tb.Run(load, func(i, _ int, host *transport.Host) bool {
		reply, rejects, _, err := workload.Submit(host, tb.Ring, 0, host.Name(), broker.Request{
			Tenant:       tenants[i],
			Sites:        sites,
			ProcsPerSite: procsPerSite,
			Executable:   "app",
			Spares:       1,
		}, 0, 20, nil)
		if err != nil {
			fmt.Printf("t=%-8v %s request %d: FAILED: %v\n", g.Sim.Now(), tenants[i], i, err)
			return false
		}
		fmt.Printf("t=%-8v %s: committed job %s (%d procs, %d attempt(s), %d substitution(s), %d admission reject(s), queued %v)\n",
			g.Sim.Now(), tenants[i], reply.JobID, reply.WorldSize,
			reply.Attempts, reply.Substitutions, rejects, reply.QueueWait)
		return reply.OK()
	})
	if err := writeOutputs(g, opts); err != nil {
		return err
	}
	if simErr != nil {
		return simErr
	}
	return audit(tb)
}
