package grab_test

import (
	"reflect"
	"testing"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/lrm"
)

// An abort answers the waiting processes in request order, then rank order
// — not in the order of the maps that hold them, which made the sequence of
// replies differ from run to run.
func TestAbortAnswersInRequestThenRankOrder(t *testing.T) {
	r := newRig(t, "m1", "m2", "m3")
	r.g.RegisterEverywhere("idle", func(p *lrm.Proc) error { return p.Sleep(time.Hour) })
	r.g.RegisterEverywhere("exits", func(p *lrm.Proc) error { return p.Sleep(time.Minute) })
	p := &players{sim: r.g.Sim, host: r.g.Net.AddHost("ranks"), contact: r.broker.Contact()}
	err := r.g.Sim.Run("agent", func() {
		const job = "workstation/grab1"
		delay := 30 * time.Second
		for _, who := range []struct {
			m    string
			rank int
		}{{"m2", 1}, {"m1", 3}, {"m2", 0}, {"m1", 1}, {"m1", 0}} {
			p.checkin(job, who.m, who.rank, delay, time.Hour)
			delay += time.Millisecond
		}
		specs := []core.SubjobSpec{r.spec("m1", 4), r.spec("m2", 3), r.spec("m3", 2)}
		specs[0].Executable, specs[1].Executable, specs[2].Executable = "idle", "idle", "exits"
		if _, err := r.broker.Allocate(core.Request{Subjobs: specs}); err == nil {
			t.Error("Allocate succeeded though m3's processes exited before the barrier")
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if got, want := p.order(), []string{"m1/0", "m1/1", "m1/3", "m2/0", "m2/1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("answers came back as %v, want %v", got, want)
	}
	for _, a := range p.answers {
		if a.Err != nil || a.Reply.Proceed || a.At != p.answers[0].At {
			t.Errorf("answer to %s = %+v, %v at %v", a.Who, a.Reply, a.Err, a.At)
		}
	}
}
