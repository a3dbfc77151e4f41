package broker

import (
	"testing"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
)

// TestUntracedOrphanBuildsNothing: recording an orphan builds its subjob
// key, the flight-recorder detail, the resource manager's address and the
// gauge's name only for an observer to take. With none attached it
// allocates nothing (it made four allocations when each was built and then
// dropped); with a tracer attached the orphan instant carries them.
func TestUntracedOrphanBuildsNothing(t *testing.T) {
	g := grid.New(grid.Options{Seed: 1})
	b, err := New(g.Net.AddHost("broker0"), core.ControllerConfig{Credential: g.UserCred, Registry: g.Registry},
		Options{Directory: transport.Addr{Host: "mds0", Service: "mds"}, ReplicaID: "fed01"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	o := core.Orphan{Job: "job7", Subjob: "req3.1/m02", RM: transport.Addr{Host: "m02", Service: "gram"}, Reason: "cancel: timed out"}
	if allocs := testing.AllocsPerRun(100, func() { b.orphaned(o) }); allocs != 0 {
		t.Errorf("an orphan on an untraced network allocated %v times, want 0", allocs)
	}
	tr := trace.New(g.Sim)
	g.Net.SetTracer(tr)
	b.orphaned(o)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Name != "orphan" || evs[0].Thr != "job7/req3.1/m02" || len(evs[0].Args) != 2 || evs[0].Args[0].Val != "m02:gram" {
		t.Errorf("the same orphan with a tracer attached emitted %+v", evs)
	}
}
