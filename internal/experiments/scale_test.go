package experiments

import (
	"testing"
	"time"

	"cogrid/internal/vtime"
)

// TestScaleStudyDrainsAndEnginesAgree runs a sub-second slice of B4 on
// both timer engines: every job must finish failure-free with real timer
// and queueing volume behind the row, and the reference heap and the
// production wheel must agree on every virtual-time column.
func TestScaleStudyDrainsAndEnginesAgree(t *testing.T) {
	res := ScaleStudy(ScaleConfig{
		Jobs:             2000,
		Machines:         50,
		MachineSize:      16,
		MeanInterarrival: time.Second,
		Engines:          []vtime.TimerEngine{vtime.EngineHeap, vtime.EngineWheel},
		Seed:             1,
	})
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want one per engine", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Done != int64(res.Jobs) || row.Failed != 0 {
			t.Errorf("%s lost jobs: done=%d failed=%d of %d", row.Engine, row.Done, row.Failed, res.Jobs)
		}
		if row.TimersFired <= row.Done {
			t.Errorf("%s: timers_fired=%d implausibly low for %d jobs", row.Engine, row.TimersFired, row.Done)
		}
		if row.VirtualEnd <= 0 || row.P99Wait < row.MeanWait {
			t.Errorf("%s: implausible drain/wait values: %+v", row.Engine, row)
		}
	}
	if !res.Rows[0].VirtualEqual(res.Rows[1]) {
		t.Errorf("engines diverge on virtual-time columns:\n  %+v\n  %+v", res.Rows[0], res.Rows[1])
	}
}
