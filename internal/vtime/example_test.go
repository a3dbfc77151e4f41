package vtime_test

import (
	"fmt"
	"time"

	"cogrid/internal/vtime"
)

// Two simulated processes rendezvous over a channel; a "10 minute" wait
// costs microseconds of real time and the timing is exact.
func Example() {
	sim := vtime.New()
	ch := vtime.NewChan[string](sim, "mailbox", 0)

	// One process starts the others, so both exist before either runs.
	err := sim.Run("main", func() {
		sim.Go("producer", func() {
			sim.Sleep(10 * time.Minute)
			ch.Send("results ready")
		})
		sim.Go("consumer", func() {
			msg, _ := ch.Recv()
			fmt.Printf("t=%v: received %q\n", sim.Now(), msg)
		})
	})
	if err != nil {
		fmt.Println("deadlock:", err)
	}
	// Output:
	// t=10m0s: received "results ready"
}

// WaitTimeout distinguishes progress from silence — the mechanism every
// failure-detection timeout in the co-allocator builds on.
func ExampleEvent_WaitTimeout() {
	sim := vtime.New()
	started := vtime.NewEvent(sim, "started")
	sim.Go("watcher", func() {
		if !started.WaitTimeout(30 * time.Second) {
			fmt.Printf("t=%v: no progress, declaring failure\n", sim.Now())
		}
	})
	sim.Wait()
	// Output:
	// t=30s: no progress, declaring failure
}
