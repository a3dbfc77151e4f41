// Package failure injects faults into a simulated grid: the crash, hang,
// slowdown, partition, and authentication failures whose diverse
// visibilities — "ranging from an error report to lack of progress" — the
// paper's Section 2 identifies as the defining difficulty of
// co-allocation.
//
// A Plan is a deterministic schedule of actions applied to a grid. It is
// what workload.Testbed.Schedule compiles a list of workload.Fault into;
// the harnesses outside bench/ name faults only as workload.Fault.
package failure

import (
	"sort"
	"time"

	"cogrid/internal/grid"
)

// Kind enumerates fault actions.
type Kind int

const (
	// HostCrash kills a host: connections error out (detectable).
	HostCrash Kind = iota
	// HostHang silently drops a host's traffic (lack of progress).
	HostHang
	// HostRestore brings a hung host back.
	HostRestore
	// MachineSlow multiplies a machine's process startup time by Factor.
	MachineSlow
	// MachineDown makes a machine's resource manager refuse submissions.
	MachineDown
	// MachineUp restores a downed resource manager.
	MachineUp
	// Partition severs connectivity between Target and Target2.
	Partition
	// Heal restores connectivity between Target and Target2.
	Heal
	// RevokeUser invalidates a credential: authentication fails.
	RevokeUser
	// ReinstateUser restores a revoked credential.
	ReinstateUser
	// MachineRestart reboots a crashed machine: the host comes back and a
	// fresh gatekeeper starts, with the LRM's job table intact — the
	// recovery action that lets leaked allocations on a crashed machine be
	// reaped.
	MachineRestart
)

// Action is one scheduled fault.
type Action struct {
	At      time.Duration
	Kind    Kind
	Target  string
	Target2 string  // second endpoint for Partition/Heal
	Factor  float64 // slowdown factor for MachineSlow
}

// Plan is a schedule of faults.
type Plan []Action

// Apply schedules every action on the grid's kernel. Actions with At in
// the past execute immediately.
func (p Plan) Apply(g *grid.Grid) {
	for _, a := range p {
		action := a
		g.Sim.AfterFunc(max(action.At-g.Sim.Now(), 0), func() {
			apply(g, action)
		})
	}
}

func apply(g *grid.Grid, a Action) {
	switch a.Kind {
	case HostCrash:
		if h := g.Net.Host(a.Target); h != nil {
			h.Crash()
		}
	case HostHang:
		if h := g.Net.Host(a.Target); h != nil {
			h.Hang()
		}
	case HostRestore:
		if h := g.Net.Host(a.Target); h != nil {
			h.Restore()
		}
	case MachineSlow:
		if m := g.Machine(a.Target); m != nil {
			m.SetSlowFactor(a.Factor)
		}
	case MachineDown:
		if m := g.Machine(a.Target); m != nil {
			m.SetDown(true)
		}
	case MachineUp:
		if m := g.Machine(a.Target); m != nil {
			m.SetDown(false)
		}
	case Partition:
		g.Net.Partition(a.Target, a.Target2)
	case Heal:
		g.Net.Heal(a.Target, a.Target2)
	case RevokeUser:
		g.Registry.Revoke(a.Target)
	case ReinstateUser:
		g.Registry.Reinstate(a.Target)
	case MachineRestart:
		if g.Machine(a.Target) != nil {
			g.RestartMachine(a.Target)
		}
	}
}

// Sorted returns the plan ordered by time.
func (p Plan) Sorted() Plan {
	out := append(Plan(nil), p...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
