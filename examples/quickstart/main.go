// Quickstart: build a two-machine grid, co-allocate processes on both
// through DUROC, and let them exchange a message — the smallest complete
// use of the library.
package main

import (
	"fmt"
	"log"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
)

// The request in the paper's RSL: a multirequest (+) of one conjunction (&)
// per subjob, each naming its machine's gatekeeper contact.
const request = `+(&(resourceManagerContact=mercury:gram)(count=2)(executable=hello)
   (subjobStartType=required)(label=mercury))
  (&(resourceManagerContact=venus:gram)(count=2)(executable=hello)
   (subjobStartType=required)(label=venus))`

func main() {
	// A grid is a simulated network with a client workstation, a NIS
	// server, and GRAM-fronted machines.
	g := grid.New(grid.Options{})
	g.AddMachine("mercury", 64, lrm.Fork)
	g.AddMachine("venus", 64, lrm.Fork)

	// The application executable, registered on every machine. Each
	// process attaches to the co-allocation, passes the barrier, and
	// greets its right-hand neighbor through the address book.
	g.RegisterEverywhere("hello", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		cfg, err := rt.Barrier(true, "", 0)
		if err != nil {
			return nil // co-allocation aborted before commit
		}
		next := (cfg.MyRank + 1) % cfg.WorldSize
		conn, err := rt.DialRank(next)
		if err != nil {
			return err
		}
		defer conn.Close()
		msg := fmt.Sprintf("hello rank %d, this is rank %d (subjob %d)", next, cfg.MyRank, cfg.MySubjob)
		if err := conn.Send([]byte(msg)); err != nil {
			return err
		}
		// Receive the greeting from the left-hand neighbor.
		peer, ok := rt.Listener().Accept()
		if !ok {
			return fmt.Errorf("listener closed")
		}
		got, err := peer.Recv()
		if err != nil {
			return err
		}
		fmt.Printf("rank %d received: %s\n", cfg.MyRank, got)
		return nil
	})

	// The co-allocation agent runs on the workstation.
	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	})
	if err != nil {
		log.Fatal(err)
	}

	err = g.Sim.Run("agent", func() {
		job, err := ctrl.SubmitRSL(request)
		if err != nil {
			log.Fatal(err)
		}
		cfg, err := job.Commit(0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("committed: %d subjobs, %d processes, at simulated t=%v\n",
			cfg.NSubjobs, cfg.WorldSize, g.Sim.Now())
		job.Done().Wait()
		fmt.Printf("all processes finished at simulated t=%v\n", g.Sim.Now())
		// Give the final prints' deliveries a beat to settle.
		g.Sim.Sleep(time.Second)
	})
	if err != nil {
		log.Fatal(err)
	}
}
