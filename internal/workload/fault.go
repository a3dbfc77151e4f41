package workload

import (
	"fmt"
	"time"

	"cogrid/internal/failure"
	"cogrid/internal/grid"
)

// Fault is one injected fault: Kind strikes Target at At and heals Dur
// later, inside the run, which is what entitles the zero-leak checks at
// quiescence. "hang", "slow" (startup Factor times slower; below 1, 10),
// "partition" (from the front host: Ring[0]'s, or the workstation when
// unbrokered), "down" and "crash" (healed by a restart that keeps the LRM
// job table) strike a machine; "revoke" strikes the grid user's credential
// and has no Target; "broker-crash" crashes a federation replica and
// restarts it. Two faults on one target must not overlap: the first heal
// would end both.
type Fault struct {
	Kind   string        `json:"kind"`
	Target string        `json:"target,omitempty"`
	At     time.Duration `json:"at"`
	Dur    time.Duration `json:"dur"`
	Factor float64       `json:"factor,omitempty"`
}

// faultActions pairs each kind a failure plan injects with the action that
// starts it and the one that heals it.
var faultActions = map[string][2]failure.Kind{
	"hang":      {failure.HostHang, failure.HostRestore},
	"slow":      {failure.MachineSlow, failure.MachineSlow},
	"partition": {failure.Partition, failure.Heal},
	"down":      {failure.MachineDown, failure.MachineUp},
	"crash":     {failure.HostCrash, failure.MachineRestart},
	"revoke":    {failure.RevokeUser, failure.ReinstateUser},
}

// Onset is the failure action that starts f, which is what the studies
// name a fault by; a broker-crash has none (an invalid Kind).
func (f Fault) Onset() failure.Kind {
	if kinds, ok := faultActions[f.Kind]; ok {
		return kinds[0]
	}
	return -1
}

// schedule sets faults going from the driver process and returns when the
// last of them heals: a daemon for each broker-crash, the rest as one
// failure plan.
func (tb *Testbed) schedule(faults []Fault) (healBy time.Duration) {
	front := tb.Grid.Workstation.Name()
	if len(tb.Ring) > 0 {
		front = tb.Ring[0].Host
	}
	var plan failure.Plan
	for _, f := range faults {
		healBy = max(healBy, f.At+f.Dur)
		if f.Kind == "broker-crash" {
			tb.crashReplica(f)
			continue
		}
		kinds, ok := faultActions[f.Kind]
		if !ok {
			panic(fmt.Sprintf("workload: unknown fault kind %q", f.Kind))
		}
		onset := failure.Action{At: f.At, Kind: kinds[0], Target: f.Target}
		heal := failure.Action{At: f.At + f.Dur, Kind: kinds[1], Target: f.Target}
		switch f.Kind {
		case "slow":
			onset.Factor, heal.Factor = f.Factor, 1
			if f.Factor < 1 {
				onset.Factor = 10
			}
		case "partition":
			onset.Target, onset.Target2 = front, f.Target
			heal.Target, heal.Target2 = front, f.Target
		case "revoke":
			onset.Target, heal.Target = grid.DefaultUser, grid.DefaultUser
		}
		plan = append(plan, onset, heal)
	}
	plan.Sorted().Apply(tb.Grid)
	return healBy
}

// crashReplica takes the replica f targets down at At and back up Dur later.
func (tb *Testbed) crashReplica(f Fault) {
	sim := tb.Grid.Sim
	for _, r := range tb.Fed.Replicas() {
		if r.Name() == f.Target {
			sim.GoDaemon("crash:"+f.Target, func() {
				sim.SleepUntil(f.At)
				r.Crash()
				sim.Sleep(f.Dur)
				if err := r.Restart(); err != nil {
					panic(fmt.Sprintf("workload: restart %s: %v", f.Target, err))
				}
			})
		}
	}
}
