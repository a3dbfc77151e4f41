package experiments

import (
	"fmt"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/metrics"
	"cogrid/internal/reservation"
)

// --- R1: co-reservation (Section 5 future work) ---

// CoReservationResult reports one co-reservation negotiation and claim.
type CoReservationResult struct {
	Machines        int
	NegotiatedStart time.Duration
	Releases        []time.Duration // per-process barrier release times
	WorldSize       int
	Spread          time.Duration // max - min release time
}

// CoReservationStudy negotiates a common window across machines whose
// reservation tables conflict, claims it through DUROC, and verifies that
// every process starts together inside the window — the guarantee the
// paper argues co-allocation ultimately requires.
func CoReservationStudy(seed int64) CoReservationResult {
	g := grid.New(grid.Options{Seed: seed})
	names := []string{"sp1", "sp2", "sp3", "sp4"}
	for _, name := range names {
		g.AddMachine(name, 64, lrm.Batch)
	}
	// Pre-existing reservations stagger each machine's availability.
	mustReserve(g, "sp1", 64, 0, 1*time.Hour)
	mustReserve(g, "sp2", 64, 0, 2*time.Hour)
	mustReserve(g, "sp3", 48, 90*time.Minute, time.Hour)
	res := CoReservationResult{Machines: len(names)}

	var releases []time.Duration
	g.RegisterEverywhere("synced", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if _, err := rt.Barrier(true, "", 0); err != nil {
			return nil
		}
		releases = append(releases, p.Sim().Now())
		return p.Work(time.Minute, time.Second)
	})
	ctrl := newController(g)
	err := g.Sim.Run("agent", func() {
		var parts []reservation.Participant
		for _, name := range names {
			parts = append(parts, reservation.Participant{Contact: g.Contact(name), Count: 32})
		}
		cr, err := reservation.CoReserve(g.Workstation, g.ClientConfig(), parts,
			reservation.Options{Duration: time.Hour})
		if err != nil {
			panic(fmt.Sprintf("co-reserve: %v", err))
		}
		res.NegotiatedStart = cr.Start
		req := cr.Request("synced", g.Sim.Now(), 10*time.Minute)
		job, err := ctrl.Submit(req)
		if err != nil {
			panic(err)
		}
		cfg, err := job.Commit(0)
		if err != nil {
			panic(fmt.Sprintf("commit: %v", err))
		}
		res.WorldSize = cfg.WorldSize
		job.Done().Wait()
		cr.Close()
	})
	if err != nil {
		panic(err)
	}
	res.Releases = append(res.Releases, releases...)
	if len(res.Releases) > 0 {
		minAt, maxAt := res.Releases[0], res.Releases[0]
		for _, at := range res.Releases {
			if at < minAt {
				minAt = at
			}
			if at > maxAt {
				maxAt = at
			}
		}
		res.Spread = maxAt - minAt
	}
	return res
}

func mustReserve(g *grid.Grid, machine string, count int, start, duration time.Duration) {
	if _, err := g.Machine(machine).Reserve(count, start, duration); err != nil {
		panic(err)
	}
}

// Table renders the study.
func (r CoReservationResult) Table() *metrics.Table {
	t := metrics.NewTable("R1: co-reservation across machines with conflicting reservation tables",
		"metric", "value")
	t.Add("machines", r.Machines)
	t.Add("negotiated common start", r.NegotiatedStart)
	t.Add("world size at release", r.WorldSize)
	t.Add("processes released", len(r.Releases))
	t.Add("release-time spread", r.Spread)
	return t
}
