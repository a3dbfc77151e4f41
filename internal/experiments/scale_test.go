package experiments

import (
	"testing"
	"time"
)

// TestScaleStudyDrains runs a sub-second slice of B4: every job must finish
// failure-free with real timer and queueing volume behind the row. (That
// the reference heap produces the same row is internal/vtime's
// TestKernelEquivalenceScaleSmoke.)
func TestScaleStudyDrains(t *testing.T) {
	res := ScaleStudy(ScaleConfig{
		Jobs:             2000,
		Machines:         50,
		MachineSize:      16,
		MeanInterarrival: time.Second,
		Seed:             1,
	})
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want one", len(res.Rows))
	}
	row := res.Rows[0]
	if row.Done != int64(res.Jobs) || row.Failed != 0 {
		t.Errorf("lost jobs: done=%d failed=%d of %d", row.Done, row.Failed, res.Jobs)
	}
	if row.TimersFired <= row.Done {
		t.Errorf("timers_fired=%d implausibly low for %d jobs", row.TimersFired, row.Done)
	}
	if row.VirtualEnd <= 0 || row.P99Wait < row.MeanWait {
		t.Errorf("implausible drain/wait values: %+v", row)
	}
}
