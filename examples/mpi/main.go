// Mpi runs a grid-spanning MPI job the MPICH-G way (paper Section 4.3):
// the application only calls mpig.Init — all DUROC calls are hidden in
// the library — and computes a distributed dot product across three
// machines: rank 0 Scatters the index ranges, ranks exchange halos point to
// point and partial sums pairwise with SendRecv, and an AllReduce and an
// AllGather must agree on the total.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mpig"
)

const (
	vectorLen = 1 << 16
	procsPer  = 4
)

func main() {
	g := grid.New(grid.Options{})
	machines := []string{"anl", "ncsa", "sdsc"}
	for _, name := range machines {
		g.AddMachine(name, 64, lrm.Fork)
	}
	g.RegisterEverywhere("dot", dotProduct)

	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	})
	if err != nil {
		log.Fatal(err)
	}
	var req core.Request
	for _, name := range machines {
		req.Subjobs = append(req.Subjobs, core.SubjobSpec{
			Label: name, Contact: g.Contact(name), Count: procsPer,
			Executable: "dot", Type: core.Required,
		})
	}
	err = g.Sim.Run("agent", func() {
		job, err := ctrl.Submit(req)
		if err != nil {
			log.Fatal(err)
		}
		cfg, err := job.Commit(0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("MPI world: %d ranks over %d machines, formed at t=%v\n",
			cfg.WorldSize, cfg.NSubjobs, g.Sim.Now())
		job.Done().Wait()
		if reason := job.Err(); reason != "" {
			log.Fatalf("job failed: %s", reason)
		}
		fmt.Printf("job complete at t=%v\n", g.Sim.Now())
		g.Sim.Sleep(time.Second)
	})
	if err != nil {
		log.Fatal(err)
	}
}

// dotProduct: each rank owns a slice of two synthetic vectors, given to it
// by rank 0, computes its partial dot product, verifies neighbor
// connectivity with a halo exchange, swaps partials with its pair partner,
// and AllReduces and AllGathers the partials.
func dotProduct(p *lrm.Proc) error {
	comm, err := mpig.Init(p)
	if err != nil {
		return err
	}
	defer comm.Finalize()

	rank, size := comm.Rank(), comm.Size()
	// Rank 0 decides every rank's [lo, hi) and scatters it.
	var ranges [][]byte
	if rank == 0 {
		chunk := vectorLen / size
		for r := 0; r < size; r++ {
			bounds := [2]int{r * chunk, (r + 1) * chunk}
			if r == size-1 {
				bounds[1] = vectorLen
			}
			part, _ := json.Marshal(bounds)
			ranges = append(ranges, part)
		}
	}
	mine, err := comm.Scatter(0, ranges)
	if err != nil {
		return err
	}
	var bounds [2]int
	if err := json.Unmarshal(mine, &bounds); err != nil {
		return err
	}
	lo, hi := bounds[0], bounds[1]
	var partial int64
	for i := lo; i < hi; i++ {
		a := int64(i%97 + 1)
		b := int64(i%89 + 1)
		partial += a * b
	}

	// Halo exchange: send the boundary value right, receive from left.
	if size > 1 {
		right := (rank + 1) % size
		left := (rank - 1 + size) % size
		payload, _ := json.Marshal(hi - 1)
		if err := comm.Send(right, 1, payload); err != nil {
			return err
		}
		got, err := comm.Recv(left, 1)
		if err != nil {
			return err
		}
		var leftBoundary int
		json.Unmarshal(got, &leftBoundary)
		wantBoundary := lo - 1
		if rank == 0 {
			wantBoundary = vectorLen - 1
		}
		if leftBoundary != wantBoundary {
			return fmt.Errorf("rank %d: halo got %d, want %d", rank, leftBoundary, wantBoundary)
		}
	}

	// Pairwise exchange: ranks 2k and 2k+1 swap partial sums in one call.
	mineJSON, _ := json.Marshal(partial)
	partner := rank ^ 1
	var partnerPartial int64 = -1
	if partner < size {
		got, err := comm.SendRecv(partner, mineJSON)
		if err != nil {
			return err
		}
		json.Unmarshal(got, &partnerPartial)
	}

	total, err := comm.AllReduceInt(partial, func(a, b int64) int64 { return a + b })
	if err != nil {
		return err
	}
	// Every rank sees every partial: they must sum to the AllReduce total,
	// and the partner's must be the one SendRecv delivered.
	all, err := comm.AllGather(mineJSON)
	if err != nil {
		return err
	}
	var sum int64
	for r, raw := range all {
		var v int64
		json.Unmarshal(raw, &v)
		sum += v
		if r == partner && v != partnerPartial {
			return fmt.Errorf("rank %d: SendRecv got %d from rank %d, AllGather %d", rank, partnerPartial, r, v)
		}
	}
	if sum != total {
		return fmt.Errorf("rank %d: AllGather sums to %d, AllReduce %d", rank, sum, total)
	}
	if rank == 0 {
		// Check against a serial computation.
		var want int64
		for i := 0; i < vectorLen; i++ {
			want += int64(i%97+1) * int64(i%89+1)
		}
		status := "MATCHES"
		if total != want {
			status = fmt.Sprintf("MISMATCH (want %d)", want)
		}
		fmt.Printf("distributed dot product over %d ranks (subjob-major): %d — %s\n", size, total, status)
	}
	return comm.Barrier()
}
