// Package experiments implements the paper's evaluation: each function
// regenerates one figure, table, or application study on the simulated
// grid, returning both structured results and formatted text. The same
// code backs cmd/benchgrid and the repository's benchmarks; EXPERIMENTS.md
// records paper-versus-measured values.
package experiments

import (
	"fmt"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/workload"
)

// barrierApp is the testbed's application with the barrier timeout every
// study uses: generous, since experiments with batch queues legitimately
// keep processes waiting for hours.
func barrierApp(workTime time.Duration) lrm.ExecFunc {
	return workload.App(workTime, 24*time.Hour)
}

// newController builds a DUROC controller on the grid's workstation.
func newController(g *grid.Grid) *core.Controller {
	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	})
	if err != nil {
		panic(err) // fresh workstation host: cannot fail
	}
	return ctrl
}

// splitProcs spreads total processes over m subjobs as evenly as possible.
func splitProcs(total, m int) []int {
	out := make([]int, m)
	base, rem := total/m, total%m
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// seconds formats a duration as seconds with millisecond precision.
func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}
