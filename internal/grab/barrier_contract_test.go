package grab_test

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
}

// players checks in at the broker's barrier in place of the application
// processes — the real ones ("idle") only hold their processors — each over
// its own connection from one host, so the test sees every reply and the
// order in which the replies come back.
type players struct {
	sim     *vtime.Sim
	host    *transport.Host
	contact transport.Addr
	answers []answer // in the order the calls returned
}

// checkin starts a process that checks in after delay; it returns at once.
func (p *players) checkin(job, subjob string, rank int, delay, timeout time.Duration) {
	who := fmt.Sprintf("%s/%d", subjob, rank)
	p.sim.Go("player:"+who, func() {
		p.sim.Sleep(delay)
		a := answer{Who: who}
		conn, err := p.host.Dial(p.contact)
		if err == nil {
			client := rpc.NewClient(p.sim, conn)
			err = client.Call("checkin", core.CheckinArgs{
				Job: job, Subjob: subjob, Rank: rank, OK: true, Addr: "ranks:" + who,
			}, &a.Reply, timeout)
			client.Close()
		}
		a.Err, a.At = err, p.sim.Now()
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

// TestBarrierContract pins what GRAB's barrier promises the processes that
// check in, whoever serves the connection. The allocation under test is the
// broker's first, so its id is known before Allocate returns it.
func TestBarrierContract(t *testing.T) {
	const job = "workstation/grab1"
	idle := func(r *rig, machine string, count int) core.SubjobSpec {
		spec := r.spec(machine, count)
		spec.Executable = "idle"
		return spec
	}
	cases := []struct {
		name  string
		agent func(t *testing.T, r *rig, p *players)
		check func(t *testing.T, p *players)
	}{
		{
			// Five processes arrive last first; the release answers them first
			// subjob first, lowest rank first, all at one instant. GRAB
			// releases at the instant the last process arrives, on a connection
			// so young that the server's own prologue is still on its way: that
			// answer queues behind it and lands after the others, so the sixth
			// process here is the one that is due last anyway.
			name: "release answers in (subjob, rank) order",
			agent: func(t *testing.T, r *rig, p *players) {
				delay := time.Minute
				for _, who := range []struct {
					m    string
					rank int
				}{{"m2", 1}, {"m2", 0}, {"m1", 2}, {"m1", 1}, {"m1", 0}, {"m2", 2}} {
					p.checkin(job, who.m, who.rank, delay, time.Hour)
					delay += time.Second
				}
				alloc, err := r.broker.Allocate(core.Request{Subjobs: []core.SubjobSpec{idle(r, "m1", 3), idle(r, "m2", 3)}})
				if err != nil {
					t.Errorf("Allocate: %v", err)
					return
				}
				defer alloc.Kill()
				if alloc.Config.WorldSize != 6 {
					t.Errorf("config = %+v", alloc.Config)
				}
				r.g.Sim.Sleep(time.Second)
			},
			check: func(t *testing.T, p *players) {
				want := []string{"m1/0", "m1/1", "m1/2", "m2/0", "m2/1", "m2/2"}
				if got := p.order(); !reflect.DeepEqual(got, want) {
					t.Fatalf("answers came back as %v, want %v", got, want)
				}
				var book []string
				for _, who := range want {
					book = append(book, "ranks:"+who)
				}
				for i, a := range p.answers {
					cfg := a.Reply.Config
					if a.Err != nil || !a.Reply.Proceed || cfg.MyRank != i || cfg.MySubjob != i/3 ||
						!reflect.DeepEqual(cfg.AddressBook(), book) {
						t.Errorf("answer %d (%s) = %+v, %v", i, a.Who, a.Reply, a.Err)
					}
				}
			},
		},
		{
			// The broker cannot tell that a waiting client has given up: the
			// process still counts as arrived, its answer goes nowhere, and the
			// others are answered as if nothing had happened.
			name: "a rank whose client timed out and closed does not disturb the others",
			agent: func(t *testing.T, r *rig, p *players) {
				p.checkin(job, "m1", 1, time.Minute, time.Second)
				p.checkin(job, "m1", 2, time.Minute+10*time.Second, time.Hour)
				p.checkin(job, "m1", 0, time.Minute+20*time.Second, time.Hour)
				p.checkin(job, "m1", 3, time.Minute+30*time.Second, time.Hour)
				alloc, err := r.broker.Allocate(core.Request{Subjobs: []core.SubjobSpec{idle(r, "m1", 4)}})
				if err != nil {
					t.Errorf("Allocate: %v", err)
					return
				}
				defer alloc.Kill()
				r.g.Sim.Sleep(time.Second)
			},
			check: func(t *testing.T, p *players) {
				if got, want := p.order(), []string{"m1/1", "m1/0", "m1/2", "m1/3"}; !reflect.DeepEqual(got, want) {
					t.Fatalf("answers came back as %v, want %v", got, want)
				}
				if gone := p.answers[0]; gone.Err != rpc.ErrTimeout {
					t.Errorf("the impatient rank got %v, want ErrTimeout", gone.Err)
				}
				for _, a := range p.answers[1:] {
					cfg := a.Reply.Config
					if a.Err != nil || !a.Reply.Proceed || cfg.WorldSize != 4 ||
						!reflect.DeepEqual(cfg.AddressBook(), []string{"ranks:m1/0", "ranks:m1/1", "ranks:m1/2", "ranks:m1/3"}) {
						t.Errorf("answer to %s = %+v, %v", a.Who, a.Reply, a.Err)
					}
				}
			},
		},
		{
			// Atomic: one subjob that cannot start takes the arrived processes
			// of the others with it, each told why.
			name: "an abort answers every waiter",
			agent: func(t *testing.T, r *rig, p *players) {
				for rank := 3; rank >= 0; rank-- {
					p.checkin(job, "m1", rank, 30*time.Second, time.Hour)
				}
				m2 := idle(r, "m2", 2)
				m2.Executable = "exits"
				if _, err := r.broker.Allocate(core.Request{Subjobs: []core.SubjobSpec{idle(r, "m1", 4), m2}}); err == nil {
					t.Error("Allocate succeeded though m2's processes exited before the barrier")
				}
			},
			check: func(t *testing.T, p *players) {
				if len(p.answers) != 4 {
					t.Fatalf("%d answers, want 4", len(p.answers))
				}
				for _, a := range p.answers {
					if a.Err != nil || a.Reply.Proceed || a.Reply.Reason == "" || a.At != p.answers[0].At {
						t.Errorf("answer to %s = %+v, %v at %v", a.Who, a.Reply, a.Err, a.At)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, "m1", "m2")
			r.g.RegisterEverywhere("idle", func(p *lrm.Proc) error { return p.Sleep(time.Hour) })
			r.g.RegisterEverywhere("exits", func(p *lrm.Proc) error { return p.Sleep(time.Minute) })
			p := &players{sim: r.g.Sim, host: r.g.Net.AddHost("ranks"), contact: r.broker.Contact()}
			if err := r.g.Sim.Run("agent", func() { tc.agent(t, r, p) }); err != nil {
				t.Fatalf("sim: %v", err)
			}
			tc.check(t, p)
		})
	}
}
