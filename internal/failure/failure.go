// Package failure injects faults into a simulated grid: the crash, hang,
// slowdown, partition, and authentication failures whose diverse
// visibilities — "ranging from an error report to lack of progress" — the
// paper's Section 2 identifies as the defining difficulty of
// co-allocation.
//
// A Plan is a deterministic schedule of actions applied to a grid;
// RandomPlan draws one from seeded distributions for stress experiments.
package failure

import (
	"fmt"
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

func (k Kind) String() string {
	switch k {
	case HostCrash:
		return "host-crash"
	case HostHang:
		return "host-hang"
	case HostRestore:
		return "host-restore"
	case MachineSlow:
		return "machine-slow"
	case MachineDown:
		return "machine-down"
	case MachineUp:
		return "machine-up"
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	case RevokeUser:
		return "revoke-user"
	case ReinstateUser:
		return "reinstate-user"
	case MachineRestart:
		return "machine-restart"
	}
	return "invalid"
}

// Action is one scheduled fault.
type Action struct {
	At      time.Duration
	Kind    Kind
	Target  string
	Target2 string  // second endpoint for Partition/Heal
	Factor  float64 // slowdown factor for MachineSlow
}

func (a Action) String() string {
	switch a.Kind {
	case Partition, Heal:
		return fmt.Sprintf("t=%v %s %s<->%s", a.At, a.Kind, a.Target, a.Target2)
	case MachineSlow:
		return fmt.Sprintf("t=%v %s %s x%.1f", a.At, a.Kind, a.Target, a.Factor)
	default:
		return fmt.Sprintf("t=%v %s %s", a.At, a.Kind, a.Target)
	}
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

// RandomOptions parameterizes RandomPlan.
type RandomOptions struct {
	// Targets are the machine names faults may hit.
	Targets []string
	// Window is the time span faults are drawn from.
	Window time.Duration
	// CrashProb, HangProb, SlowProb are per-target probabilities of each
	// fault (independent draws; at most one fault per target, checked in
	// this order).
	CrashProb float64
	HangProb  float64
	SlowProb  float64 // a slow fault stretches startup 20x
}

// RandomPlan draws a deterministic fault plan from the grid's seeded
// random source: at most one fault per target machine, uniformly placed
// in the window.
func RandomPlan(g *grid.Grid, opts RandomOptions) Plan {
	var plan Plan
	for _, target := range opts.Targets {
		at := time.Duration(g.Sim.RandFloat64() * float64(opts.Window))
		roll := g.Sim.RandFloat64()
		switch {
		case roll < opts.CrashProb:
			plan = append(plan, Action{At: at, Kind: HostCrash, Target: target})
		case roll < opts.CrashProb+opts.HangProb:
			plan = append(plan, Action{At: at, Kind: HostHang, Target: target})
		case roll < opts.CrashProb+opts.HangProb+opts.SlowProb:
			plan = append(plan, Action{At: at, Kind: MachineSlow, Target: target, Factor: 20})
		}
	}
	return plan.Sorted()
}
