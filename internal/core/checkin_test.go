package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/lrm"
	"cogrid/internal/wire"
)

// wideConfig is a committed configuration of n subjobs × m processes.
func wideConfig(n, m int) core.Config {
	cfg := core.Config{NSubjobs: n, WorldSize: n * m}
	for s := 0; s < n; s++ {
		cfg.SubjobSizes = append(cfg.SubjobSizes, m)
		cfg.SubjobLabels = append(cfg.SubjobLabels, fmt.Sprintf("site%d", s))
		for r := 0; r < m; r++ {
			cfg.AddressBook = append(cfg.AddressBook, fmt.Sprintf("machine%02d:app.client0_coalloc12.site%d.%d", s, s, r))
		}
	}
	return cfg
}

func sampleArgs() []core.CheckinArgs {
	return []core.CheckinArgs{
		{},
		{Job: "workstation/coalloc1", Subjob: "m1", Rank: 3, OK: true, Addr: "m1:app.workstation_coalloc1.m1.3"},
		{Job: "j", Subjob: "s", Rank: -1, OK: false, Msg: "local library check failed"},
	}
}

func sampleReplies() []core.CheckinReply {
	late := core.NewRelease(wideConfig(2, 3)).Reply(-1, -1)
	return []core.CheckinReply{
		{},
		{Proceed: false, Reason: "required subjob \"m2\" failed: startup timeout after 10m0s"},
		{Proceed: true, Config: wideConfig(1, 1)},
		core.NewRelease(wideConfig(8, 8)).Reply(5, 43),
		late,
	}
}

// sameReply compares what a receiver can see of two replies.
func sameReply(a, b core.CheckinReply) bool {
	return a.Proceed == b.Proceed && a.Reason == b.Reason && reflect.DeepEqual(a.Config, b.Config)
}

func TestCheckinBodyRoundTrip(t *testing.T) {
	for _, a := range sampleArgs() {
		var got core.CheckinArgs
		if err := got.ParseWire(a.AppendWire(nil)); err != nil || got != a {
			t.Errorf("args %+v came back as %+v, %v", a, got, err)
		}
	}
	for _, p := range sampleReplies() {
		body := p.AppendWire(nil)
		var got core.CheckinReply
		if err := got.ParseWire(body); err != nil || !sameReply(got, p) {
			t.Errorf("reply %+v came back as %+v, %v", p, got, err)
		}
		// The encode-once form and the encode-per-reply form are the same
		// bytes: a receiver cannot tell which one the sender used.
		plain := core.CheckinReply{Proceed: p.Proceed, Reason: p.Reason, Config: p.Config}
		if !bytes.Equal(body, plain.AppendWire(nil)) {
			t.Errorf("reply %+v: shared and unshared encodings differ", p)
		}
		for n := 0; n < len(body); n++ {
			if err := got.ParseWire(body[:n]); !errors.Is(err, wire.ErrFrame) {
				t.Fatalf("reply truncated to %d of %d bytes: err = %v, want ErrFrame", n, len(body), err)
			}
		}
	}
	// A list count no remaining bytes can back is malformed, not a reason
	// to allocate: proceed, reason "", MySubjob, MyRank, NSubjobs, then a
	// sizes count of 2⁴⁰.
	hostile := wire.AppendUvarint([]byte{1, 0, 0, 0, 0}, 1<<40)
	var got core.CheckinReply
	if err := got.ParseWire(hostile); !errors.Is(err, wire.ErrFrame) {
		t.Errorf("over-long count: err = %v, want ErrFrame", err)
	}
}

// FuzzCheckinBody feeds arbitrary bytes to both parsers: they never panic,
// and whatever parses survives Append then Parse unchanged.
func FuzzCheckinBody(f *testing.F) {
	for _, a := range sampleArgs() {
		f.Add(a.AppendWire(nil))
	}
	for _, p := range sampleReplies() {
		body := p.AppendWire(nil)
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x80}, 32))
	f.Add(wire.AppendUvarint([]byte{1, 0, 0, 0, 0}, 1<<40))
	f.Add(wire.AppendUvarint([]byte{1}, 1<<62))
	f.Fuzz(func(t *testing.T, data []byte) {
		var p core.CheckinReply
		if err := p.ParseWire(data); err != nil {
			if !errors.Is(err, wire.ErrFrame) {
				t.Fatalf("reply parse error %v is not ErrFrame", err)
			}
			if !sameReply(p, core.CheckinReply{}) {
				t.Fatalf("failed parse left the reply populated: %+v", p)
			}
		} else {
			var again core.CheckinReply
			if err := again.ParseWire(p.AppendWire(nil)); err != nil || !sameReply(again, p) {
				t.Fatalf("reply not a round-trip fixpoint: %+v then %+v, %v", p, again, err)
			}
		}
		var a core.CheckinArgs
		if err := a.ParseWire(data); err != nil {
			if !errors.Is(err, wire.ErrFrame) || a != (core.CheckinArgs{}) {
				t.Fatalf("args parse: err %v, left %+v", err, a)
			}
		} else {
			var again core.CheckinArgs
			if err := again.ParseWire(a.AppendWire(nil)); err != nil || again != a {
				t.Fatalf("args not a round-trip fixpoint: %+v then %+v, %v", a, again, err)
			}
		}
	})
}

// TestCheckinReplyParseAllocs holds the receive side of a 64-process
// release to a constant: one string for every label and address, and the
// three slices. Sixty-four of these run per co-allocation.
func TestCheckinReplyParseAllocs(t *testing.T) {
	body := core.NewRelease(wideConfig(8, 8)).Reply(3, 27).AppendWire(nil)
	var p core.CheckinReply
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.ParseWire(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("parsing a 64-entry reply allocated %v times, want at most 4", allocs)
	}
	if len(p.Config.AddressBook) != 64 || p.Config.MyRank != 27 {
		t.Errorf("parsed config = %+v", p.Config)
	}
}

// TestReleaseEncodesOnce answers the sixteen check-ins of a 4 × 4 job at
// the controller's barrier service and requires every reply to append the
// very same bytes — one backing array, so the commit encoded its address
// book once, not sixteen times.
func TestReleaseEncodesOnce(t *testing.T) {
	machines := []string{"m1", "m2", "m3", "m4"}
	rig := newRig(t, machines...)
	// The real processes only hold their processors; the test plays their
	// check-ins, so it sees the replies before they are encoded.
	rig.g.RegisterEverywhere("idle", func(p *lrm.Proc) error { return p.Sleep(time.Hour) })
	var replies []core.CheckinReply
	err := rig.g.Sim.Run("agent", func() {
		var req core.Request
		for _, m := range machines {
			spec := rig.spec(m, 4, core.Required)
			spec.Executable = "idle"
			req.Subjobs = append(req.Subjobs, spec)
		}
		job, err := rig.ctrl.Submit(req)
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		rig.g.Sim.Sleep(time.Minute) // every subjob submitted and active
		for _, m := range machines {
			for r := 0; r < 4; r++ {
				args := core.CheckinArgs{Job: job.ID(), Subjob: m, Rank: r, OK: true, Addr: fmt.Sprintf("%s:fake.%d", m, r)}
				rig.ctrl.Checkin(args, func(p core.CheckinReply) { replies = append(replies, p) })
			}
		}
		if _, err := job.Commit(time.Minute); err != nil {
			t.Errorf("Commit: %v", err)
		}
		rig.g.Sim.Sleep(time.Second)
		job.Kill()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if len(replies) != 16 {
		t.Fatalf("%d replies, want 16", len(replies))
	}
	first := core.SharedWire(replies[0])
	if len(first) == 0 {
		t.Fatal("reply carries no release encoding")
	}
	ranks := map[int]bool{}
	for _, p := range replies {
		shared := core.SharedWire(p)
		if len(shared) != len(first) || &shared[0] != &first[0] {
			t.Fatalf("rank %d's reply has its own encoding of the configuration", p.Config.MyRank)
		}
		if body := p.AppendWire(nil); !bytes.HasSuffix(body, first) {
			t.Errorf("rank %d's body does not end in the shared region", p.Config.MyRank)
		}
		ranks[p.Config.MyRank] = true
	}
	if len(ranks) != 16 {
		t.Errorf("distinct ranks = %d, want 16", len(ranks))
	}
}

// TestGoldenConfig pins what the six processes of one fixed 2 × 3 request
// are told, field for field — the Config applications saw before the
// check-in reply had a typed body.
func TestGoldenConfig(t *testing.T) {
	rig := newRig(t, "m1", "m2")
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 3, core.Required),
			rig.spec("m2", 3, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	got := rig.proceeded
	sort.Slice(got, func(a, b int) bool { return got[a].MyRank < got[b].MyRank })
	var want []core.Config
	for rank := 0; rank < 6; rank++ {
		want = append(want, core.Config{
			NSubjobs:     2,
			SubjobSizes:  []int{3, 3},
			SubjobLabels: []string{"m1", "m2"},
			WorldSize:    6,
			AddressBook: []string{
				"m1:app.workstation_coalloc1.m1.0", "m1:app.workstation_coalloc1.m1.1", "m1:app.workstation_coalloc1.m1.2",
				"m2:app.workstation_coalloc1.m2.0", "m2:app.workstation_coalloc1.m2.1", "m2:app.workstation_coalloc1.m2.2",
			},
			MySubjob: rank / 3,
			MyRank:   rank,
		})
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("configs seen by the processes:\n got %+v\nwant %+v", got, want)
	}
}

// staggeredRig registers "staggered": rank r checks in (r+1)·100 ms after
// it starts, so every rank's barrier wait is different.
func staggeredRig(t *testing.T, machines ...string) *testRig {
	rig := newRig(t, machines...)
	rig.g.RegisterEverywhere("staggered", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if err := p.Sleep(time.Duration(p.Rank+1) * 100 * time.Millisecond); err != nil {
			return err
		}
		if _, err := rt.Barrier(true, "", 0); err != nil {
			rig.mu.Lock()
			rig.abortMsgs = append(rig.abortMsgs, err.Error())
			rig.mu.Unlock()
			return nil
		}
		return p.Work(time.Second, time.Second)
	})
	rig.g.RegisterEverywhere("idle", func(p *lrm.Proc) error { return p.Sleep(time.Hour) })
	return rig
}

// TestReleaseDropsWaitersAndOrdersWaits: a released job stays in
// Controller.Jobs for the audit but holds no waiter (each pins a reply
// channel), and BarrierWaits lists ranks in (subjob, rank) order on every
// run rather than in map-iteration order.
func TestReleaseDropsWaitersAndOrdersWaits(t *testing.T) {
	rig := staggeredRig(t, "m1", "m2")
	var job *core.Job
	err := rig.g.Sim.Run("agent", func() {
		specs := []core.SubjobSpec{rig.spec("m1", 4, core.Required), rig.spec("m2", 4, core.Required)}
		for i := range specs {
			specs[i].Executable = "staggered"
		}
		var err error
		if job, err = rig.ctrl.Submit(core.Request{Subjobs: specs}); err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
		}
		if n := job.Waiters(); n != 0 {
			t.Errorf("released job still holds %d barrier waiters", n)
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	waits := job.BarrierWaits()
	if len(waits) != 8 {
		t.Fatalf("%d barrier waits, want 8", len(waits))
	}
	for sj := 0; sj < 2; sj++ {
		for r := 1; r < 4; r++ {
			// Rank r checked in 100 ms after rank r-1 and left with it.
			if d := waits[sj*4+r-1] - waits[sj*4+r]; d != 100*time.Millisecond {
				t.Fatalf("waits %v are not in (subjob, rank) order", waits)
			}
		}
	}
}

// TestDiscardDropsWaiters aborts a job whose first subjob is waiting in
// the barrier: the waiters are answered and forgotten.
func TestDiscardDropsWaiters(t *testing.T) {
	rig := staggeredRig(t, "m1", "m2")
	err := rig.g.Sim.Run("agent", func() {
		waiting, never := rig.spec("m1", 4, core.Required), rig.spec("m2", 4, core.Required)
		waiting.Executable, never.Executable = "staggered", "idle"
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{waiting, never}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		rig.g.Sim.Sleep(time.Minute)
		if n := job.Waiters(); n != 4 {
			t.Errorf("%d waiters in the barrier before the abort, want 4", n)
		}
		job.Abort("agent gave up")
		if n := job.Waiters(); n != 0 {
			t.Errorf("aborted job still holds %d barrier waiters", n)
		}
		job.Done().Wait()
		// The kernel stops when this function returns; let the four abort
		// replies arrive first.
		rig.g.Sim.Sleep(time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if len(rig.abortMsgs) != 4 {
		t.Errorf("%d processes saw the abort, want 4: %q", len(rig.abortMsgs), rig.abortMsgs)
	}
}
