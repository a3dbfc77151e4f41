package core_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/lrm"
	"cogrid/internal/rpc"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// answer is what one played check-in came back with.
type answer struct {
	Who   string // subjob/rank
	Reply core.CheckinReply
	Err   error
	At    time.Duration
	Took  time.Duration // dial to reply
}

// players checks in at a barrier in place of the application processes —
// the real ones ("idle") only hold their processors — each over its own
// connection from one host, so the test sees every reply and the order in
// which the replies come back.
type players struct {
	sim     *vtime.Sim
	host    *transport.Host
	contact transport.Addr
	job     string
	wg      *vtime.WaitGroup
	answers []answer // in the order the calls returned
}

func newPlayers(rig *testRig, job string) *players {
	return &players{
		sim:     rig.g.Sim,
		host:    rig.g.Net.AddHost("ranks"),
		contact: rig.ctrl.Contact(),
		job:     job,
		wg:      vtime.NewWaitGroup(rig.g.Sim),
	}
}

// checkin starts one process's check-in; it returns at once.
func (p *players) checkin(subjob string, rank int, timeout time.Duration) {
	p.wg.Add(1)
	who := fmt.Sprintf("%s/%d", subjob, rank)
	p.sim.Go("player:"+who, func() {
		defer p.wg.Done()
		start := p.sim.Now()
		a := answer{Who: who}
		conn, err := p.host.Dial(p.contact)
		if err == nil {
			client := rpc.NewClient(p.sim, conn)
			err = client.Call("checkin", core.CheckinArgs{
				Job: p.job, Subjob: subjob, Rank: rank, OK: true, Addr: "ranks:" + who,
			}, &a.Reply, timeout)
			client.Close()
		}
		a.Err, a.At, a.Took = err, p.sim.Now(), p.sim.Now()-start
		p.answers = append(p.answers, a)
	})
}

func (p *players) order() []string {
	var who []string
	for _, a := range p.answers {
		who = append(who, a.Who)
	}
	return who
}

// TestBarrierContract pins what the barrier service promises the processes
// that check in, whoever serves the connection: the order of the answers,
// what each carries, and that one lost client costs the others nothing.
func TestBarrierContract(t *testing.T) {
	idle := func(rig *testRig, machine string, count int, typ core.SubjobType) core.SubjobSpec {
		spec := rig.spec(machine, count, typ)
		spec.Executable = "idle"
		return spec
	}
	cases := []struct {
		name     string
		machines []string
		agent    func(t *testing.T, rig *testRig)
	}{
		{
			// Nine processes arrive last first; the commit answers them first
			// subjob first, lowest rank first, all at one instant.
			name:     "release answers in (subjob, rank) order",
			machines: []string{"m1", "m2", "m3"},
			agent: func(t *testing.T, rig *testRig) {
				job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
					idle(rig, "m1", 3, core.Required), idle(rig, "m2", 3, core.Required), idle(rig, "m3", 3, core.Required),
				}})
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				rig.g.Sim.Sleep(time.Minute)
				p := newPlayers(rig, job.ID())
				for _, m := range []string{"m3", "m2", "m1"} {
					for r := 2; r >= 0; r-- {
						p.checkin(m, r, time.Hour)
						rig.g.Sim.Sleep(time.Millisecond)
					}
				}
				rig.g.Sim.Sleep(time.Second) // every check-in has arrived and its connection is idle
				if _, err := job.Commit(time.Minute); err != nil {
					t.Errorf("Commit: %v", err)
				}
				p.wg.Wait()
				want := []string{"m1/0", "m1/1", "m1/2", "m2/0", "m2/1", "m2/2", "m3/0", "m3/1", "m3/2"}
				if got := p.order(); !reflect.DeepEqual(got, want) {
					t.Errorf("answers came back as %v, want %v", got, want)
				}
				var book []string
				for _, who := range want {
					book = append(book, "ranks:"+who)
				}
				for i, a := range p.answers {
					cfg := a.Reply.Config
					if a.Err != nil || !a.Reply.Proceed || cfg.MyRank != i || cfg.MySubjob != i/3 || cfg.WorldSize != 9 ||
						!reflect.DeepEqual(cfg.AddressBook(), book) || a.At != p.answers[0].At {
						t.Errorf("answer %d (%s) = %+v, %v at %v", i, a.Who, a.Reply, a.Err, a.At)
					}
				}
				if n := job.Waiters(); n != 0 {
					t.Errorf("%d waiters still held after the release", n)
				}
				job.Kill()
			},
		},
		{
			name:     "discard answers in rank order",
			machines: []string{"m1", "m2"},
			agent: func(t *testing.T, rig *testRig) {
				job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
					idle(rig, "m1", 4, core.Interactive), idle(rig, "m2", 1, core.Required),
				}})
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				rig.g.Sim.Sleep(time.Minute)
				p := newPlayers(rig, job.ID())
				for _, r := range []int{2, 3, 0} { // three of four: never full
					p.checkin("m1", r, time.Hour)
					rig.g.Sim.Sleep(time.Millisecond)
				}
				rig.g.Sim.Sleep(time.Second)
				if err := job.Delete("m1"); err != nil {
					t.Errorf("Delete: %v", err)
				}
				p.wg.Wait()
				if got, want := p.order(), []string{"m1/0", "m1/2", "m1/3"}; !reflect.DeepEqual(got, want) {
					t.Errorf("answers came back as %v, want %v", got, want)
				}
				for _, a := range p.answers {
					if a.Err != nil || a.Reply.Proceed || a.Reply.Reason != "deleted by agent" || a.At != p.answers[0].At {
						t.Errorf("answer to %s = %+v, %v at %v", a.Who, a.Reply, a.Err, a.At)
					}
				}
				if n := job.Waiters(); n != 0 {
					t.Errorf("%d waiters still held after the discard", n)
				}
				// A process of the deleted subjob that arrives now is told so at once.
				p.checkin("m1", 1, time.Hour)
				p.wg.Wait()
				if a := p.answers[3]; a.Err != nil || a.Reply.Proceed || a.Took != 4*time.Millisecond {
					t.Errorf("check-in after the discard = %+v, %v after %v; want an abort after 4ms", a.Reply, a.Err, a.Took)
				}
				job.Kill()
			},
		},
		{
			// A partially arrived optional subjob is outside the committed
			// configuration: its waiter is released with the others as a late
			// joiner, and its next process is answered on arrival.
			name:     "an optional subjob's late joiner is answered at once",
			machines: []string{"m1", "m2"},
			agent: func(t *testing.T, rig *testRig) {
				job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
					idle(rig, "m1", 2, core.Required), idle(rig, "m2", 2, core.Optional),
				}})
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				rig.g.Sim.Sleep(time.Minute)
				p := newPlayers(rig, job.ID())
				p.checkin("m2", 0, time.Hour)
				p.checkin("m1", 1, time.Hour)
				p.checkin("m1", 0, time.Hour)
				rig.g.Sim.Sleep(time.Second) // every check-in has arrived and its connection is idle
				if _, err := job.Commit(time.Minute); err != nil {
					t.Errorf("Commit: %v", err)
				}
				p.wg.Wait()
				if got, want := p.order(), []string{"m1/0", "m1/1", "m2/0"}; !reflect.DeepEqual(got, want) {
					t.Errorf("answers came back as %v, want %v", got, want)
				}
				rig.g.Sim.Sleep(time.Second)
				p.checkin("m2", 1, time.Hour)
				p.wg.Wait()
				for i, a := range p.answers {
					cfg := a.Reply.Config
					wantRank, wantSubjob := i, 0
					if i >= 2 {
						wantRank, wantSubjob = -1, -1
					}
					if a.Err != nil || !a.Reply.Proceed || cfg.MyRank != wantRank || cfg.MySubjob != wantSubjob || cfg.WorldSize != 2 ||
						!reflect.DeepEqual(cfg.AddressBook(), []string{"ranks:m1/0", "ranks:m1/1"}) {
						t.Errorf("answer %d (%s) = %+v, %v", i, a.Who, a.Reply, a.Err)
					}
				}
				if late := p.answers[3]; late.Took != 4*time.Millisecond {
					t.Errorf("late joiner waited %v, want 4ms (one round trip to dial, one to call)", late.Took)
				}
				job.Kill()
			},
		},
		{
			// The service cannot tell that a waiting client has given up: the
			// process still counts as arrived, its answer goes nowhere, and the
			// others are answered as if nothing had happened.
			name:     "a rank whose client timed out and closed does not disturb the others",
			machines: []string{"m1"},
			agent: func(t *testing.T, rig *testRig) {
				job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{idle(rig, "m1", 3, core.Required)}})
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				rig.g.Sim.Sleep(time.Minute)
				p := newPlayers(rig, job.ID())
				p.checkin("m1", 1, time.Second)
				rig.g.Sim.Sleep(5 * time.Second)
				p.checkin("m1", 2, time.Hour)
				p.checkin("m1", 0, time.Hour)
				rig.g.Sim.Sleep(time.Second) // every check-in has arrived and its connection is idle
				if _, err := job.Commit(time.Minute); err != nil {
					t.Errorf("Commit: %v", err)
				}
				p.wg.Wait()
				if got, want := p.order(), []string{"m1/1", "m1/0", "m1/2"}; !reflect.DeepEqual(got, want) {
					t.Errorf("answers came back as %v, want %v", got, want)
				}
				if gone := p.answers[0]; gone.Err != rpc.ErrTimeout {
					t.Errorf("the impatient rank got %v, want ErrTimeout", gone.Err)
				}
				for _, a := range p.answers[1:] {
					cfg := a.Reply.Config
					if a.Err != nil || !a.Reply.Proceed || cfg.WorldSize != 3 ||
						!reflect.DeepEqual(cfg.AddressBook(), []string{"ranks:m1/0", "ranks:m1/1", "ranks:m1/2"}) {
						t.Errorf("answer to %s = %+v, %v", a.Who, a.Reply, a.Err)
					}
				}
				rig.g.Sim.Sleep(time.Second) // the answer to the closed connection has been and gone
				if n := job.Waiters(); n != 0 {
					t.Errorf("%d waiters still held after the release", n)
				}
				job.Kill()
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, tc.machines...)
			rig.g.RegisterEverywhere("idle", func(p *lrm.Proc) error { return p.Sleep(time.Hour) })
			if err := rig.g.Sim.Run("agent", func() { tc.agent(t, rig) }); err != nil {
				t.Fatalf("sim: %v", err)
			}
		})
	}
}
