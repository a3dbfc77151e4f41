package main

import (
	"fmt"

	"cogrid/internal/experiments"
)

// runChaosDemo runs the built-in chaos scenario: the smoke-sized B2
// configuration at its highest fault rate. Machines crash, hang, slow
// down, and partition from the broker mid-run while Poisson arrivals keep
// submitting; the narrative shows how many requests still commit, what
// the per-attempt watchdog aborted, and — the point of the exercise —
// that every committed-but-lost subjob was reaped at its resource
// manager, so nothing keeps holding processors. Observability outputs
// (trace, counters) follow opts.
func runChaosDemo(opts runOptions) error {
	// Seed 3's draw includes host crashes followed by machine restarts,
	// so the orphan reaper has real work to show.
	cfg := experiments.SLOSmokeConfig(3).Chaos
	const faultRate = 0.75
	fmt.Printf("chaos demo: %d batch machines x %d procs, %d broker workers, fault rate %.2f\n",
		cfg.Machines, cfg.MachineSize, cfg.Workers, faultRate)
	fmt.Printf("requests: %d arrivals (Poisson, %.0f/min) of %d sites x %d processes each\n\n",
		cfg.Requests, cfg.RatePerMin, cfg.Sites, cfg.ProcsPerSite)

	row, g := experiments.ChaosRun(cfg, faultRate)

	fmt.Printf("faults injected: %d (%s)\n", row.Faults, row.FaultKinds)
	fmt.Printf("requests:        %d committed, %d failed, %d abandoned at deadline\n",
		row.Completed, row.Failed, row.Abandoned)
	fmt.Printf("broker retries:  %d (admission rejects: %d)\n", row.Retries, row.Rejects)
	fmt.Printf("watchdog aborts: %d\n", row.WatchdogAborts)
	if row.FaultClasses != "" {
		fmt.Printf("fault classes:   %s\n", row.FaultClasses)
	}
	fmt.Printf("orphans:         %d recorded, %d reaped\n", row.OrphansRecorded, row.OrphansReaped)
	fmt.Printf("leaked jobs:     %d (live LRM jobs after quiescence)\n", row.LeakedJobs)
	if row.Completed > 0 {
		fmt.Printf("latency:         p50 %v, p99 %v\n", row.P50, row.P99)
	}

	if err := writeOutputs(g, opts); err != nil {
		return err
	}
	if row.LeakedJobs != 0 || row.OrphansRecorded != row.OrphansReaped {
		return fmt.Errorf("chaos demo leaked: %d live jobs, orphans %d/%d",
			row.LeakedJobs, row.OrphansRecorded, row.OrphansReaped)
	}
	fmt.Println("\nno leaks: every orphaned subjob was cancelled at its resource manager")
	return nil
}
