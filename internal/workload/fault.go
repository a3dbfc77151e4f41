package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"cogrid/internal/failure"
	"cogrid/internal/grid"
)

// Fault is one injected fault, the one fault value every harness schedules
// (Testbed.Schedule): Kind strikes Target at At and heals Dur later, or
// never when Dur is 0. "hang", "slow" (startup Factor times slower; 0 means
// 10), "down" and "crash" (healed by a restart that keeps the LRM job
// table) strike a machine; "partition" cuts Target from Target2, empty for
// the front host (Ring[0]'s, or the workstation when unbrokered); "revoke"
// strikes the grid user's credential and has no Target; "broker-crash"
// crashes a federation replica and restarts it. CheckFaults holds the rules.
type Fault struct {
	Kind    string        `json:"kind"`
	Target  string        `json:"target,omitempty"`
	Target2 string        `json:"target2,omitempty"`
	At      time.Duration `json:"at"`
	Dur     time.Duration `json:"dur"`
	Factor  float64       `json:"factor,omitempty"`
}

// FaultKinds are the kinds CheckFaults accepts; one its switch does not
// name strikes a machine.
var FaultKinds = []string{"hang", "slow", "partition", "down", "crash", "revoke", "broker-crash"}

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

// CheckFaults is the one rule set a fault list passes before it is
// scheduled on a testbed of these machines, federation replicas and front
// host: a kind from FaultKinds; a target that exists for it (a machine, a
// replica for broker-crash, none for revoke, two different hosts of the
// three sorts for a partition, and a Target2 only there); At and Dur not
// negative; a slow Factor of 0 or at least 1; and no two faults overlapping
// on one target, or on one unordered pair of hosts for partitions, since
// the first heal would end both. Windows that touch overlap too: a heal and
// an onset at one instant apply in list order, not window order.
func CheckFaults(faults []Fault, front string, machines, replicas []string) error {
	keys := make([][2]string, len(faults))
	for i, f := range faults {
		if !slices.Contains(FaultKinds, f.Kind) {
			return fmt.Errorf("unknown fault kind %q", f.Kind)
		}
		key, where := [2]string{f.Target}, f.Target
		var ok bool
		switch f.Kind {
		case "revoke":
			ok = f.Target == ""
		case "broker-crash":
			ok = slices.Contains(replicas, f.Target)
		case "partition":
			key[1] = cmp.Or(f.Target2, front)
			where = key[0] + "<->" + key[1]
			ok = key[0] != key[1]
			for _, end := range key {
				ok = ok && (end == front || slices.Contains(machines, end) || slices.Contains(replicas, end))
			}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
		default:
			ok = slices.Contains(machines, f.Target)
		}
		switch {
		case !ok:
			return fmt.Errorf("%s fault at %v: no such target %q", f.Kind, f.At, where)
		case f.Target2 != "" && f.Kind != "partition":
			return fmt.Errorf("%s fault at %v: only a partition has a target2", f.Kind, f.At)
		case f.At < 0 || f.Dur < 0:
			return fmt.Errorf("%s fault at %v: negative time or duration", f.Kind, f.At)
		case f.Kind == "slow" && !(f.Factor == 0 || f.Factor >= 1):
			return fmt.Errorf("slow fault at %v: factor %v is neither 0 nor at least 1", f.At, f.Factor)
		}
		for j, e := range faults[:i] {
			if keys[j] == key && f.At <= healAt(e) && e.At <= healAt(f) {
				return fmt.Errorf("%s fault at %v overlaps the %s fault at %v on the same target %q",
					f.Kind, f.At, e.Kind, e.At, where)
			}
		}
		keys[i] = key
	}
	return nil
}

// healAt is when f heals; a fault that never heals lasts to the end of time.
func healAt(f Fault) time.Duration {
	if f.Dur == 0 {
		return math.MaxInt64
	}
	return f.At + f.Dur
}

// Schedule checks faults against the testbed (CheckFaults) and sets them
// going, from inside the simulation or before it runs: a daemon for each
// broker-crash, the rest compiled into one failure plan whose actions apply
// in stable time order. It returns when the last fault heals, or strikes if
// it never heals.
func (tb *Testbed) Schedule(faults []Fault) (healBy time.Duration, err error) {
	front := tb.Grid.Workstation.Name()
	if len(tb.Ring) > 0 {
		front = tb.Ring[0].Host
	}
	var replicas []string
	if tb.Fed != nil {
		for _, r := range tb.Fed.Replicas() {
			replicas = append(replicas, r.Name())
		}
	}
	if err := CheckFaults(faults, front, tb.Grid.Machines(), replicas); err != nil {
		return 0, err
	}
	tb.faulted = tb.faulted || len(faults) > 0
	var plan failure.Plan
	for _, f := range faults {
		healBy = max(healBy, f.At+f.Dur)
		if f.Kind == "broker-crash" {
			tb.crashReplica(f)
			continue
		}
		kinds := faultActions[f.Kind]
		onset := failure.Action{At: f.At, Kind: kinds[0], Target: f.Target}
		heal := failure.Action{At: f.At + f.Dur, Kind: kinds[1], Target: f.Target}
		switch f.Kind {
		case "slow":
			onset.Factor, heal.Factor = cmp.Or(f.Factor, 10), 1
		case "partition":
			onset.Target, onset.Target2 = cmp.Or(f.Target2, front), f.Target
			heal.Target, heal.Target2 = onset.Target, f.Target
		case "revoke":
			onset.Target, heal.Target = grid.DefaultUser, grid.DefaultUser
		}
		plan = append(plan, onset)
		if f.Dur > 0 {
			plan = append(plan, heal)
		}
	}
	plan.Sorted().Apply(tb.Grid)
	return healBy, nil
}

// crashReplica takes the replica f targets down at At and, unless the crash
// is permanent, back up Dur later.
func (tb *Testbed) crashReplica(f Fault) {
	sim := tb.Grid.Sim
	for _, r := range tb.Fed.Replicas() {
		if r.Name() == f.Target {
			sim.GoDaemon("crash:"+f.Target, func() {
				sim.SleepUntil(f.At)
				r.Crash()
				if f.Dur == 0 {
					return
				}
				sim.Sleep(f.Dur)
				if err := r.Restart(); err != nil {
					panic(fmt.Sprintf("workload: restart %s: %v", f.Target, err))
				}
			})
		}
	}
}
