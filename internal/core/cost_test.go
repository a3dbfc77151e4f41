package core_test

import (
	"testing"

	"cogrid/internal/core"
)

// What a co-allocation costs the kernel in processes, counted. A 4 × 4 job
// from submission to completion spawns 33, each accounted for: the 16
// application processes, duroc-engine, and per subjob the gatekeeper's
// connection (GSI handshake and initgroups are waits in mid-function, so it
// keeps its process), gram-watch, duroc-monitor and duroc-close. None of
// the 16 barrier check-ins, 4 initgroups lookups and 4 GRAM clients owns a
// process at either end: no rpc-demux, rpc-accept or gram-client-events at
// all, and no rpc-conn for the duroc or nis services — with those it was 81.
func TestCoallocationSpawnsNoProcessPerCheckin(t *testing.T) {
	machines := []string{"m1", "m2", "m3", "m4"}
	rig := newRig(t, machines...)
	err := rig.g.Sim.Run("agent", func() {
		spawned := rig.g.Sim.Spawned()
		var req core.Request
		for _, m := range machines {
			req.Subjobs = append(req.Subjobs, rig.spec(m, 4, core.Required))
		}
		job, err := rig.ctrl.Submit(req)
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
		}
		job.Done().Wait()
		if got, want := rig.g.Sim.Spawned()-spawned, int64(16+1+4*4); got != want {
			t.Errorf("a 4 × 4 co-allocation spawned %d processes, want %d", got, want)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if n := rig.proceededCount(); n != 16 {
		t.Errorf("%d processes passed the barrier, want 16", n)
	}
}
