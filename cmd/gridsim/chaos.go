package main

import (
	"fmt"

	"cogrid/internal/experiments"
)

// runChaosDemo runs the built-in chaos scenario: the smoke-sized B2
// setting at its highest fault rate. Machines crash, hang, slow
// down, and partition from the broker mid-run while Poisson arrivals keep
// submitting; the narrative shows how many requests still commit, what
// the per-attempt watchdog aborted, and — the point of the exercise —
// that every committed-but-lost subjob was reaped at its resource
// manager, so nothing keeps holding processors. Observability outputs
// (trace, counters) follow opts.
func runChaosDemo(opts runOptions) error {
	const faultRate = 0.75
	fmt.Println(experiments.ChaosWorkload(true, faultRate))

	// Seed 3's draw includes host crashes followed by machine restarts,
	// so the controller's orphan retries have real work to show.
	row, g := experiments.ChaosRun(3, true, faultRate)

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
	if bad := (experiments.ChaosResult{Rows: []experiments.ChaosRow{row}}).Check(); len(bad) > 0 {
		return fmt.Errorf("chaos demo: %s", bad[0])
	}
	fmt.Println("\nno leaks: every orphaned subjob was cancelled at its resource manager")
	return nil
}
