package experiments

import "testing"

// TestScaleStudyDrains runs B4's smoke size: every job must finish
// failure-free with real timer and queueing volume behind the row. (That
// the reference heap produces the same row is internal/vtime's
// TestKernelEquivalenceScaleSmoke.)
func TestScaleStudyDrains(t *testing.T) {
	res := ScaleStudy(1, true)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want one", len(res.Rows))
	}
	if bad := res.Check(); len(bad) > 0 {
		t.Errorf("gate violations: %v", bad)
	}
	row := res.Rows[0]
	if row.TimersFired <= row.Done {
		t.Errorf("timers_fired=%d implausibly low for %d jobs", row.TimersFired, row.Done)
	}
	if row.VirtualEnd <= 0 || row.P99Wait < row.MeanWait {
		t.Errorf("implausible drain/wait values: %+v", row)
	}
}

// TestScaleCheckCatches pins that the gate actually rejects bad rows: a job
// gone missing and a job that failed, each reported on its own.
func TestScaleCheckCatches(t *testing.T) {
	res := ScaleResult{Jobs: 10, Rows: []ScaleRow{{Done: 8, Failed: 1}}}
	if bad := res.Check(); len(bad) != 2 {
		t.Fatalf("want 2 violations (missing job, failed job), got %v", bad)
	}
	res.Rows[0] = ScaleRow{Done: 10}
	if bad := res.Check(); len(bad) != 0 {
		t.Fatalf("clean row rejected: %v", bad)
	}
}
