package core_test

import (
	"testing"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/rpc"
)

// checkinRaw drives the barrier wire protocol directly, as a foreign or
// buggy process would: the call body is JSON from a bare map, the reply
// arrives in the typed form the controller sends.
func checkinRaw(t *testing.T, rig *testRig, job, subjob string, rank int, ok bool) (proceed bool, reason string) {
	t.Helper()
	conn, err := rig.g.Workstation.Dial(rig.ctrl.Contact())
	if err != nil {
		t.Fatalf("dial barrier: %v", err)
	}
	client := rpc.NewClient(rig.g.Sim, conn)
	defer client.Close()
	var reply core.CheckinReply
	err = client.Call("checkin", map[string]any{
		"job": job, "subjob": subjob, "rank": rank, "ok": ok, "addr": "workstation:fake",
	}, &reply, time.Minute)
	if err != nil {
		t.Fatalf("checkin call: %v", err)
	}
	return reply.Proceed, reply.Reason
}

func TestCheckinUnknownJobRejected(t *testing.T) {
	rig := newRig(t, "m1")
	err := rig.g.Sim.Run("main", func() {
		proceed, reason := checkinRaw(t, rig, "nope/coalloc9", "sj0", 0, true)
		if proceed {
			t.Error("unknown job proceeded")
		}
		if reason == "" {
			t.Error("no reason given")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCheckinUnknownSubjobRejected(t *testing.T) {
	rig := newRig(t, "m1")
	err := rig.g.Sim.Run("main", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 1, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		proceed, _ := checkinRaw(t, rig, job.ID(), "imposter", 0, true)
		if proceed {
			t.Error("unknown subjob proceeded")
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestCheckinAfterAbortRejectedImmediately(t *testing.T) {
	rig := newRig(t, "m1")
	err := rig.g.Sim.Run("main", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		job.Abort("changed plans")
		job.Done().Wait()
		start := rig.g.Sim.Now()
		proceed, reason := checkinRaw(t, rig, job.ID(), "m1", 0, true)
		if proceed {
			t.Error("checkin after abort proceeded")
		}
		if reason == "" {
			t.Error("abort reason not propagated to late check-in")
		}
		// The reply is immediate — no barrier wait for a dead job.
		if rig.g.Sim.Now()-start > time.Second {
			t.Errorf("late checkin took %v", rig.g.Sim.Now()-start)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestHistoryRecordsLifecycle(t *testing.T) {
	rig := newRig(t, "m1", "m2")
	err := rig.g.Sim.Run("main", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 2, core.Required),
			rig.spec("m2", 2, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		job.Done().Wait()
		history := job.History()
		var kinds []core.EventKind
		for _, ev := range history {
			kinds = append(kinds, ev.Kind)
		}
		counts := map[core.EventKind]int{}
		for _, k := range kinds {
			counts[k]++
		}
		if counts[core.EvSubmitted] != 2 || counts[core.EvCheckedIn] != 2 ||
			counts[core.EvCommitted] != 1 || counts[core.EvDone] != 1 {
			t.Errorf("history kinds = %v", kinds)
		}
		// Events are time-ordered.
		for i := 1; i < len(history); i++ {
			if history[i].At < history[i-1].At {
				t.Errorf("history out of order at %d: %v", i, history)
				break
			}
		}
		// Stringer output is presentable.
		if s := history[0].String(); s == "" {
			t.Error("empty event string")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestDuplicateRankCheckinIsIdempotentForCounting(t *testing.T) {
	// A process retrying its check-in (e.g. after a transient network
	// blip on its side) must not inflate the arrival count and trigger a
	// premature commit.
	rig := newRig(t, "m1")
	err := rig.g.Sim.Run("main", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 3, core.Required), // 3 real processes
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		cfg, err := job.Commit(0)
		if err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		if cfg.WorldSize != 3 || len(cfg.AddressBook()) != 3 {
			t.Errorf("config = %+v", cfg)
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
