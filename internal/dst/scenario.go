package dst

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cogrid/internal/workload"
)

// Driver selects which front end submits the scenario's co-allocations.
const (
	// DriverDuroc submits directly through a DUROC controller with the
	// substitution agent — the paper's Section 3 path.
	DriverDuroc = "duroc"
	// DriverBroker submits through the multi-tenant broker service —
	// the full broker → DUROC → GRAM stack.
	DriverBroker = "broker"
	// DriverFed submits through a federation of broker replicas —
	// sharded ownership, leader election, forwarding, and peer hand-off
	// of a crashed replica's in-flight allocations.
	DriverFed = "fed"
)

// fedReplicaName is the host name of federation replica i, matching the
// federation package's default naming. Broker-crash faults target these
// names exactly.
func fedReplicaName(i int) string { return fmt.Sprintf("fed%02d", i) }

// MachineSpec is one machine in the scenario's grid.
type MachineSpec struct {
	Name  string `json:"name"`
	Procs int    `json:"procs"`
	// Batch selects the metered FCFS scheduler; false is fork mode.
	Batch bool `json:"batch,omitempty"`
}

// SubjobSpec is one subjob of a duroc-driver co-allocation.
type SubjobSpec struct {
	Machine string `json:"machine"`
	Count   int    `json:"count"`
	// Type is "required", "interactive", or "optional".
	Type string `json:"type"`
}

// JobSpec is one co-allocation request. Duroc-driver jobs name their
// subjobs explicitly; broker-driver jobs ask for Sites×ProcsPerSite and
// let the broker place them.
type JobSpec struct {
	At      time.Duration `json:"at"`
	Subjobs []SubjobSpec  `json:"subjobs,omitempty"`

	Sites        int    `json:"sites,omitempty"`
	ProcsPerSite int    `json:"procs_per_site,omitempty"`
	Spares       int    `json:"spares,omitempty"`
	Tenant       string `json:"tenant,omitempty"`

	CommitTimeout  time.Duration `json:"commit_timeout"`
	StartupTimeout time.Duration `json:"startup_timeout"`
	MaxTime        time.Duration `json:"max_time"`
}

// BackgroundJob is one competing single-machine batch job.
type BackgroundJob struct {
	Machine string        `json:"machine"`
	At      time.Duration `json:"at"`
	Size    int           `json:"size"`
	Runtime time.Duration `json:"runtime"`
	Limit   time.Duration `json:"limit"`
}

// Scenario is a fully explicit end-to-end test case: topology, workload,
// and fault schedule. Generate draws one from a seed; the JSON form is
// the replay and regression-corpus format, and what the shrinker edits.
type Scenario struct {
	// Seed feeds the kernel's deterministic tiebreak RNG; the scenario
	// content itself is explicit, so editing the fields does not shift
	// any other randomness.
	Seed   int64  `json:"seed"`
	Driver string `json:"driver"`
	// Replicas sizes the broker peer group for the fed driver (zero
	// otherwise).
	Replicas   int             `json:"replicas,omitempty"`
	Machines   []MachineSpec   `json:"machines"`
	WorkTime   time.Duration   `json:"work_time"`
	Jobs       []JobSpec       `json:"jobs"`
	Background []BackgroundJob `json:"background,omitempty"`
	// Faults is the fault schedule, checked by workload.CheckFaults; every
	// fault heals.
	Faults []workload.Fault `json:"faults,omitempty"`
}

// Validate rejects scenarios the runner cannot execute.
func (s Scenario) Validate() error {
	if s.Driver != DriverDuroc && s.Driver != DriverBroker && s.Driver != DriverFed {
		return fmt.Errorf("dst: unknown driver %q", s.Driver)
	}
	if s.Driver == DriverFed {
		if s.Replicas < 1 || s.Replicas > 16 {
			return fmt.Errorf("dst: fed driver needs 1..16 replicas, got %d", s.Replicas)
		}
	} else if s.Replicas != 0 {
		return fmt.Errorf("dst: driver %s takes no replicas", s.Driver)
	}
	if len(s.Machines) == 0 {
		return fmt.Errorf("dst: no machines")
	}
	byName := map[string]MachineSpec{}
	for _, m := range s.Machines {
		if m.Name == "" || m.Procs <= 0 {
			return fmt.Errorf("dst: bad machine spec %+v", m)
		}
		if _, dup := byName[m.Name]; dup {
			return fmt.Errorf("dst: duplicate machine %s", m.Name)
		}
		byName[m.Name] = m
	}
	for i, j := range s.Jobs {
		switch s.Driver {
		case DriverDuroc:
			if len(j.Subjobs) == 0 {
				return fmt.Errorf("dst: job %d has no subjobs", i)
			}
			if j.CommitTimeout <= 0 { // the agent would wait for a commit forever
				return fmt.Errorf("dst: job %d has non-positive commit_timeout", i)
			}
			for _, sj := range j.Subjobs {
				if _, ok := byName[sj.Machine]; !ok {
					return fmt.Errorf("dst: job %d references unknown machine %s", i, sj.Machine)
				}
				if sj.Count <= 0 {
					return fmt.Errorf("dst: job %d has non-positive count", i)
				}
				switch sj.Type {
				case "required", "interactive", "optional":
				default:
					return fmt.Errorf("dst: job %d has bad subjob type %q", i, sj.Type)
				}
			}
		case DriverBroker, DriverFed:
			if j.Sites <= 0 || j.ProcsPerSite <= 0 {
				return fmt.Errorf("dst: broker job %d needs sites and procs_per_site", i)
			}
		}
	}
	// DST's own rules: every fault heals inside the run, and a replica is
	// named as the federation names it; the rest is workload.CheckFaults,
	// against the front host the driver's testbed has (Ring[0]'s, or the
	// workstation when unbrokered).
	var machines, replicas []string
	for _, m := range s.Machines {
		machines = append(machines, m.Name)
	}
	front := "workstation"
	switch s.Driver {
	case DriverBroker:
		front = "broker0"
	case DriverFed:
		for r := 0; r < s.Replicas; r++ {
			replicas = append(replicas, fedReplicaName(r))
		}
		front = replicas[0]
	}
	for _, f := range s.Faults {
		if f.Dur <= 0 {
			return fmt.Errorf("dst: fault %s has non-positive duration", f.Kind)
		}
	}
	if err := workload.CheckFaults(s.Faults, front, machines, replicas); err != nil {
		return fmt.Errorf("dst: %v", err)
	}
	for _, b := range s.Background {
		m, ok := byName[b.Machine]
		if !ok || !m.Batch {
			return fmt.Errorf("dst: background job targets non-batch machine %q", b.Machine)
		}
		if b.Size <= 0 || b.Runtime <= 0 {
			return fmt.Errorf("dst: bad background job %+v", b)
		}
	}
	return nil
}

// JSON renders the scenario in the compact one-line replay form.
func (s Scenario) JSON() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // plain struct of plain fields: cannot fail
	}
	return string(b)
}

// ParseScenario decodes the JSON replay form.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("dst: bad scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Profile bounds scenario generation.
type Profile struct {
	MaxMachines int
	MaxProcs    int
	MaxJobs     int
	MaxSubjobs  int
	MaxCount    int
	// FaultProb is the per-machine probability of one injected fault;
	// half of it again for a grid-wide credential revocation.
	FaultProb float64
	// BrokerProb is the probability the scenario exercises the broker
	// stack instead of direct DUROC submission.
	BrokerProb float64
	// FedProb is the probability a broker scenario is upgraded to a
	// federated one: a broker replica group with its own crash/restart
	// fault schedule. Drawn from a separate RNG stream so pre-federation
	// seeds keep their exact scenarios.
	FedProb float64
	// BackgroundProb is the per-batch-machine probability of a competing
	// Poisson background workload.
	BackgroundProb float64
	// Window spans the co-allocation arrivals and fault onsets.
	Window time.Duration
}

// SmokeProfile keeps scenarios small enough that hundreds of seeds run in
// seconds — the check.sh gate and the -smoke flag.
var SmokeProfile = Profile{
	MaxMachines:    4,
	MaxProcs:       8,
	MaxJobs:        3,
	MaxSubjobs:     3,
	MaxCount:       3,
	FaultProb:      0.5,
	BrokerProb:     0.35,
	FedProb:        0.4,
	BackgroundProb: 0.4,
	Window:         90 * time.Second,
}

// DefaultProfile is the full-size nightly profile.
var DefaultProfile = Profile{
	MaxMachines:    6,
	MaxProcs:       16,
	MaxJobs:        6,
	MaxSubjobs:     4,
	MaxCount:       4,
	FaultProb:      0.6,
	BrokerProb:     0.4,
	FedProb:        0.4,
	BackgroundProb: 0.6,
	Window:         3 * time.Minute,
}

var subjobTypes = []string{"required", "required", "interactive", "interactive", "optional"}

// machineFaults are the fault kinds Generate draws for a machine.
var machineFaults = []string{"hang", "slow", "partition", "down", "crash"}

// Generate draws a scenario from the seed. All randomness is consumed
// here, up front: the run itself is RNG-free apart from the kernel's
// seeded tiebreaks, so the same seed always yields the same scenario and
// the same execution.
func Generate(seed int64, p Profile) Scenario {
	rng := rand.New(rand.NewSource(seed))
	s := Scenario{Seed: seed, Driver: DriverDuroc}
	if rng.Float64() < p.BrokerProb {
		s.Driver = DriverBroker
	}

	nm := 2 + rng.Intn(p.MaxMachines-1)
	for i := 0; i < nm; i++ {
		procs := 2 + rng.Intn(p.MaxProcs-1)
		s.Machines = append(s.Machines, MachineSpec{
			Name:  fmt.Sprintf("m%02d", i),
			Procs: procs,
			Batch: rng.Float64() < 0.6,
		})
	}
	s.WorkTime = 10*time.Second + time.Duration(rng.Float64()*float64(30*time.Second))

	nj := 1 + rng.Intn(p.MaxJobs)
	at := 5 * time.Second
	for i := 0; i < nj; i++ {
		at += time.Duration(rng.Float64() * float64(p.Window) / float64(nj))
		j := JobSpec{
			At:             at,
			CommitTimeout:  90*time.Second + time.Duration(rng.Float64()*float64(time.Minute)),
			StartupTimeout: 60*time.Second + time.Duration(rng.Float64()*float64(time.Minute)),
			MaxTime:        4 * time.Minute,
		}
		if s.Driver == DriverBroker {
			j.Sites = 1 + rng.Intn(min(3, nm))
			j.ProcsPerSite = 1 + rng.Intn(p.MaxCount)
			j.Spares = rng.Intn(2)
			j.Tenant = fmt.Sprintf("t%d", rng.Intn(3))
		} else {
			ns := 1 + rng.Intn(p.MaxSubjobs)
			for k := 0; k < ns; k++ {
				m := s.Machines[rng.Intn(nm)]
				count := 1 + rng.Intn(min(p.MaxCount, m.Procs))
				j.Subjobs = append(j.Subjobs, SubjobSpec{
					Machine: m.Name,
					Count:   count,
					Type:    subjobTypes[rng.Intn(len(subjobTypes))],
				})
			}
		}
		s.Jobs = append(s.Jobs, j)
	}

	for _, m := range s.Machines {
		if !m.Batch || rng.Float64() >= p.BackgroundProb {
			continue
		}
		model := workload.Model{
			MeanInterarrival: 25 * time.Second,
			MaxSize:          max(1, m.Procs/2),
			MinRuntime:       5 * time.Second,
			MaxRuntime:       40 * time.Second,
		}
		for i, bg := range model.Generate(rng, p.Window) {
			if i >= 8 {
				break
			}
			s.Background = append(s.Background, BackgroundJob{
				Machine: m.Name,
				At:      bg.At,
				Size:    bg.Size,
				Runtime: bg.Runtime,
				Limit:   bg.Limit,
			})
		}
	}

	start := s.Jobs[0].At
	for _, m := range s.Machines {
		if rng.Float64() >= p.FaultProb {
			continue
		}
		f := workload.Fault{
			Kind:   machineFaults[rng.Intn(len(machineFaults))],
			Target: m.Name,
			At:     start + time.Duration(rng.Float64()*float64(p.Window)),
			Dur:    20*time.Second + time.Duration(rng.Float64()*float64(time.Minute)),
		}
		if f.Kind == "slow" {
			f.Factor = 10 + rng.Float64()*20
		}
		s.Faults = append(s.Faults, f)
	}
	if rng.Float64() < p.FaultProb/2 {
		s.Faults = append(s.Faults, workload.Fault{
			Kind: "revoke",
			At:   start + time.Duration(rng.Float64()*float64(p.Window)),
			Dur:  20*time.Second + time.Duration(rng.Float64()*float64(40*time.Second)),
		})
	}
	// Federation-ness comes from its own RNG stream, drawn after every
	// main-stream draw: whether or not the upgrade happens, pre-existing
	// seeds generate byte-identical base scenarios.
	frng := rand.New(rand.NewSource(seed ^ 0x5eed))
	if s.Driver == DriverBroker && frng.Float64() < p.FedProb {
		s.Driver = DriverFed
		s.Replicas = 2 + frng.Intn(3)
		// Crash (and later restart) at most Replicas-1 replicas, each a
		// distinct target, so the group always keeps a survivor to
		// inherit the dead replicas' journal entries.
		crashes := frng.Intn(s.Replicas)
		for i := 0; i < crashes; i++ {
			s.Faults = append(s.Faults, workload.Fault{
				Kind:   "broker-crash",
				Target: fedReplicaName(i),
				At:     start + time.Duration(frng.Float64()*float64(p.Window)),
				Dur:    30*time.Second + time.Duration(frng.Float64()*float64(time.Minute)),
			})
		}
	}
	sort.SliceStable(s.Faults, func(i, k int) bool { return s.Faults[i].At < s.Faults[k].At })
	return s
}
