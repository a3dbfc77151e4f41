package experiments

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cogrid/internal/agent"
	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/transport"
	"cogrid/internal/workload"
)

// TestSoakRandomGridsNeverWedge is the repository's chaos net: random
// topologies, random fault lists, random background load, both
// co-allocation strategies. Every run must terminate — commit, clean
// failure, or timeout — without a kernel deadlock, which the virtual-time
// kernel would report as an error.
func TestSoakRandomGridsNeverWedge(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			soakOnce(t, seed)
		})
	}
}

func soakOnce(t *testing.T, seed int64) {
	g := grid.New(grid.Options{Seed: seed})
	nMachines := 3 + int(seed%5)
	var names []string
	for i := 0; i < nMachines; i++ {
		name := fmt.Sprintf("m%02d", i)
		names = append(names, name)
		mode := lrm.Fork
		if i%2 == 1 {
			mode = lrm.Batch
		}
		m := g.AddMachine(name, 32, mode)
		if mode == lrm.Batch {
			workload.RegisterExecutable(m, "bg")
			model := workload.ForLoad(0.4, 32, 5*time.Minute, 30*time.Minute)
			workload.Drive(g.Sim, m, "bg", model.Generate(rand.New(newRand(seed+int64(i))), 2*time.Hour))
		}
	}
	g.RegisterEverywhere("app", barrierApp(time.Minute))

	// At most one fault on each of the first half of the machines, at a
	// uniform instant of the first minute, drawn from the kernel's seeded
	// source: a crash (25 %), a hang (15 %) or a 20x slowdown (20 %), none
	// of which heals.
	var faults []workload.Fault
	for _, name := range names[:nMachines/2+1] {
		f := workload.Fault{Target: name, At: time.Duration(g.Sim.RandFloat64() * float64(time.Minute))}
		switch roll := g.Sim.RandFloat64(); {
		case roll < 0.25:
			f.Kind = "crash"
		case roll < 0.25+0.15:
			f.Kind = "hang"
		case roll < 0.25+0.15+0.2:
			f.Kind, f.Factor = "slow", 20
		default:
			continue
		}
		faults = append(faults, f)
	}
	if _, err := (&workload.Testbed{Grid: g}).Schedule(faults); err != nil {
		t.Fatal(err)
	}

	ctrl := newController(g)
	err := g.Sim.Run("agent", func() {
		var req core.Request
		typ := core.Interactive
		if seed%3 == 0 {
			typ = core.Required
		}
		for i, name := range names {
			if i >= 3 {
				break
			}
			req.Subjobs = append(req.Subjobs, core.SubjobSpec{
				Label: name, Contact: g.Contact(name), Count: 8, Executable: "app",
				Type: typ, StartupTimeout: 10 * time.Minute,
			})
		}
		var pool []transport.Addr
		for _, name := range names[3:] {
			pool = append(pool, g.Contact(name))
		}
		res, err := agent.WithSubstitution(ctrl, req, agent.SubstituteOptions{
			Pool:              pool,
			CommitTimeout:     2 * time.Hour,
			DropUnreplaceable: true,
		})
		if err != nil {
			t.Logf("seed %d: clean failure: %v", seed, err)
			return
		}
		t.Logf("seed %d: committed %d processes (%d substituted, %d dropped)",
			seed, res.Config.WorldSize, res.Substitutions, res.Deleted)
		res.Job.Kill()
	})
	if err != nil {
		t.Fatalf("seed %d: kernel error (deadlock or stall): %v", seed, err)
	}
}

// newRand is a tiny local PRNG helper for soak workload generation.
func newRand(seed int64) *randSource { return &randSource{state: uint64(seed)*2685821657736338717 + 1} }

type randSource struct{ state uint64 }

func (r *randSource) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

// The workload generator wants a *rand.Rand; adapt via rand.New(Source).
func (r *randSource) Int63() int64 { return int64(r.next() >> 1) }
func (r *randSource) Seed(s int64) { r.state = uint64(s) }
