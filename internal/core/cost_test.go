package core_test

import (
	"testing"

	"cogrid/internal/core"
	"cogrid/internal/transport"
)

// What a co-allocation costs the kernel in processes, counted. A 4 × 4 job
// from submission to completion spawns 37, each accounted for: the 16
// application processes, duroc-engine, and per subjob five — the
// gatekeeper's rpc-preamble (the GSI handshake, a wait in mid-function;
// the connection is a task once it is over), gram-submit (misc, initgroups
// and fork: the one GRAM call that waits in mid-function), gram-watch,
// duroc-monitor and duroc-close. None of the 16 barrier check-ins, 4
// initgroups lookups and 4 GRAM clients owns a process at either end, and
// no connection does: no rpc-demux, rpc-accept, gram-client-events or
// rpc-conn at all — with those it was 81.
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
		if got, want := rig.g.Sim.Spawned()-spawned, int64(16+1+4*5); got != want {
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

// The address of every co-allocated process's application listener is
// built on untraced runs too, so it and the listener's service name, cut
// from it, are one allocation together: the string itself. The address is
// in the barrier's address book on the wire, so its bytes are pinned.
func TestAppServiceNameIsOneAllocation(t *testing.T) {
	for _, c := range []struct {
		host, job, subjob string
		rank              int
		want              string
	}{
		{"ws", "ws:duroc/coalloc17", "sj3", 5, "ws:app.ws_duroc_coalloc17.sj3.5"},
		{"m1", "job1", "m1", 1234, "m1:app.job1.m1.1234"},
	} {
		addr := core.AppAddr(c.host, c.job, c.subjob, c.rank)
		if addr != c.want {
			t.Errorf("AppAddr = %q, want %q", addr, c.want)
		}
		if service := addr[len(c.host)+1:]; (transport.Addr{Host: c.host, Service: service}).String() != addr {
			t.Errorf("service %q of %q does not render back to the address", service, addr)
		}
	}
	var service string
	if allocs := testing.AllocsPerRun(100, func() {
		addr := core.AppAddr("ws", "ws:duroc/coalloc17", "sj3", 5)
		service = addr[len("ws")+1:]
	}); allocs != 1 {
		t.Errorf("address and service name allocate %v times, want 1", allocs)
	}
	if service != "app.ws_duroc_coalloc17.sj3.5" {
		t.Errorf("service = %q, want app.ws_duroc_coalloc17.sj3.5", service)
	}
}
