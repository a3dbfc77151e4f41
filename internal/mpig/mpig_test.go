package mpig_test

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/mpig"
)

// launch starts an MPI program body on the given machines (4 procs each)
// and returns collected per-rank errors after the job completes.
func launch(t *testing.T, machines []string, procsPer int, body func(c *mpig.Comm) error) []error {
	t.Helper()
	g := grid.New(grid.Options{})
	var errs []error
	for _, name := range machines {
		g.AddMachine(name, 64, lrm.Fork)
	}
	g.RegisterEverywhere("mpi", func(p *lrm.Proc) error {
		comm, err := mpig.Init(p)
		if err != nil {
			errs = append(errs, fmt.Errorf("init: %w", err))
			return nil
		}
		defer comm.Finalize()
		if err := body(comm); err != nil {
			errs = append(errs, fmt.Errorf("rank %d: %w", comm.Rank(), err))
		}
		return nil
	})
	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
	})
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	var subjobs []core.SubjobSpec
	for _, name := range machines {
		subjobs = append(subjobs, core.SubjobSpec{
			Contact: g.Contact(name), Count: procsPer, Executable: "mpi",
			Type: core.Required, Label: name,
		})
	}
	simErr := g.Sim.Run("agent", func() {
		job, err := ctrl.Submit(core.Request{Subjobs: subjobs})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
			return
		}
		job.Done().Wait()
		if job.Err() != "" {
			t.Errorf("job error: %s", job.Err())
		}
	})
	if simErr != nil {
		t.Fatalf("sim: %v", simErr)
	}
	return errs
}

func noErrors(t *testing.T, errs []error) {
	t.Helper()
	for _, err := range errs {
		t.Error(err)
	}
}

func TestWorldFormation(t *testing.T) {
	ranks := map[int]int{}
	errs := launch(t, []string{"m1", "m2", "m3"}, 4, func(c *mpig.Comm) error {
		if c.Size() != 12 {
			return fmt.Errorf("size = %d, want 12", c.Size())
		}
		if c.Subjob() < 0 || c.Subjob() > 2 {
			return fmt.Errorf("subjob = %d", c.Subjob())
		}
		ranks[c.Rank()]++
		return nil
	})
	noErrors(t, errs)
	for r := 0; r < 12; r++ {
		if ranks[r] != 1 {
			t.Errorf("rank %d seen %d times", r, ranks[r])
		}
	}
}

func TestPointToPointAcrossSubjobs(t *testing.T) {
	errs := launch(t, []string{"m1", "m2"}, 2, func(c *mpig.Comm) error {
		// Ring: each rank sends to (rank+1) and receives from (rank-1).
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() - 1 + c.Size()) % c.Size()
		msg := []byte(fmt.Sprintf("hello from %d", c.Rank()))
		if err := c.Send(next, 7, msg); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		got, err := c.Recv(prev, 7)
		if err != nil {
			return fmt.Errorf("recv: %w", err)
		}
		want := fmt.Sprintf("hello from %d", prev)
		if string(got) != want {
			return fmt.Errorf("got %q, want %q", got, want)
		}
		return nil
	})
	noErrors(t, errs)
}

func TestSelfSend(t *testing.T) {
	errs := launch(t, []string{"m1"}, 2, func(c *mpig.Comm) error {
		if err := c.Send(c.Rank(), 1, []byte("me")); err != nil {
			return err
		}
		got, err := c.Recv(c.Rank(), 1)
		if err != nil || string(got) != "me" {
			return fmt.Errorf("self recv = %q, %v", got, err)
		}
		return nil
	})
	noErrors(t, errs)
}

func TestMessageOrderingPreserved(t *testing.T) {
	errs := launch(t, []string{"m1", "m2"}, 1, func(c *mpig.Comm) error {
		const n = 50
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if got[0] != byte(i) {
				return fmt.Errorf("message %d arrived as %d", i, got[0])
			}
		}
		return nil
	})
	noErrors(t, errs)
}

func TestBarrierSynchronizes(t *testing.T) {
	var after []time.Duration
	errs := launch(t, []string{"m1", "m2"}, 2, func(c *mpig.Comm) error {
		// Rank 0 dawdles; everyone must leave the barrier only after it
		// arrives.
		if c.Rank() == 0 {
			if err := c.Proc().Sleep(10 * time.Second); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		after = append(after, c.Proc().Sim().Now())
		return nil
	})
	noErrors(t, errs)
	if len(after) != 4 {
		t.Fatalf("%d ranks passed the barrier", len(after))
	}
	var earliest time.Duration = after[0]
	for _, at := range after {
		if at < earliest {
			earliest = at
		}
	}
	// All exits happen at or after rank 0's arrival (~10s into the app).
	for _, at := range after {
		if at < 10*time.Second {
			t.Errorf("rank left barrier at %v, before rank 0 arrived", at)
		}
	}
}

func TestBcastFromEveryRoot(t *testing.T) {
	errs := launch(t, []string{"m1", "m2"}, 2, func(c *mpig.Comm) error {
		for root := 0; root < c.Size(); root++ {
			var payload []byte
			if c.Rank() == root {
				payload = []byte(fmt.Sprintf("from-%d", root))
			}
			got, err := c.Bcast(root, payload)
			if err != nil {
				return fmt.Errorf("bcast root %d: %w", root, err)
			}
			want := fmt.Sprintf("from-%d", root)
			if string(got) != want {
				return fmt.Errorf("bcast root %d: got %q", root, got)
			}
		}
		return nil
	})
	noErrors(t, errs)
}

func TestAllReduceSumAndMax(t *testing.T) {
	errs := launch(t, []string{"m1", "m2", "m3"}, 2, func(c *mpig.Comm) error {
		sum, err := c.AllReduceInt(int64(c.Rank()+1), func(a, b int64) int64 { return a + b })
		if err != nil {
			return err
		}
		// 1+2+...+6 = 21
		if sum != 21 {
			return fmt.Errorf("sum = %d, want 21", sum)
		}
		maxv, err := c.AllReduceInt(int64(c.Rank()), func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
		if err != nil {
			return err
		}
		if maxv != int64(c.Size()-1) {
			return fmt.Errorf("max = %d, want %d", maxv, c.Size()-1)
		}
		return nil
	})
	noErrors(t, errs)
}

func TestGather(t *testing.T) {
	errs := launch(t, []string{"m1", "m2"}, 2, func(c *mpig.Comm) error {
		payload, _ := json.Marshal(c.Rank() * 10)
		out, err := c.Gather(0, payload)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if out != nil {
				return fmt.Errorf("non-root got gather output")
			}
			return nil
		}
		for r := 0; r < c.Size(); r++ {
			var v int
			if err := json.Unmarshal(out[r], &v); err != nil || v != r*10 {
				return fmt.Errorf("gather[%d] = %v, %v", r, v, err)
			}
		}
		return nil
	})
	noErrors(t, errs)
}

func TestScatter(t *testing.T) {
	errs := launch(t, []string{"m1", "m2"}, 2, func(c *mpig.Comm) error {
		var parts [][]byte
		if c.Rank() == 1 {
			for r := 0; r < c.Size(); r++ {
				parts = append(parts, []byte(fmt.Sprintf("part-%d", r)))
			}
		}
		got, err := c.Scatter(1, parts)
		if err != nil {
			return err
		}
		want := fmt.Sprintf("part-%d", c.Rank())
		if string(got) != want {
			return fmt.Errorf("scatter got %q, want %q", got, want)
		}
		return nil
	})
	noErrors(t, errs)
}

func TestScatterWrongPartCount(t *testing.T) {
	errs := launch(t, []string{"m1"}, 2, func(c *mpig.Comm) error {
		if c.Rank() != 0 {
			// Avoid blocking: only root runs the failing call.
			return nil
		}
		if _, err := c.Scatter(0, [][]byte{[]byte("only-one")}); err == nil {
			return fmt.Errorf("Scatter with wrong part count succeeded")
		}
		return nil
	})
	noErrors(t, errs)
}

func TestAllGather(t *testing.T) {
	errs := launch(t, []string{"m1", "m2", "m3"}, 2, func(c *mpig.Comm) error {
		all, err := c.AllGather([]byte(fmt.Sprintf("r%d", c.Rank())))
		if err != nil {
			return err
		}
		if len(all) != c.Size() {
			return fmt.Errorf("allgather returned %d entries", len(all))
		}
		for r, entry := range all {
			if string(entry) != fmt.Sprintf("r%d", r) {
				return fmt.Errorf("allgather[%d] = %q", r, entry)
			}
		}
		return nil
	})
	noErrors(t, errs)
}

func TestSendRecvPairwiseExchange(t *testing.T) {
	errs := launch(t, []string{"m1", "m2"}, 2, func(c *mpig.Comm) error {
		partner := c.Rank() ^ 1 // pair 0<->1, 2<->3
		got, err := c.SendRecv(partner, []byte(fmt.Sprintf("from-%d", c.Rank())))
		if err != nil {
			return err
		}
		want := fmt.Sprintf("from-%d", partner)
		if string(got) != want {
			return fmt.Errorf("sendrecv got %q, want %q", got, want)
		}
		// Self-exchange is the identity.
		self, err := c.SendRecv(c.Rank(), []byte("me"))
		if err != nil || string(self) != "me" {
			return fmt.Errorf("self sendrecv = %q, %v", self, err)
		}
		return nil
	})
	noErrors(t, errs)
}

func TestValidation(t *testing.T) {
	errs := launch(t, []string{"m1"}, 2, func(c *mpig.Comm) error {
		if err := c.Send(99, 0, nil); err != mpig.ErrBadRank {
			return fmt.Errorf("Send bad rank = %v", err)
		}
		if err := c.Send(0, -5, nil); err != mpig.ErrBadTag {
			return fmt.Errorf("Send bad tag = %v", err)
		}
		if _, err := c.Recv(0, -5); err != mpig.ErrBadTag {
			return fmt.Errorf("Recv bad tag = %v", err)
		}
		if _, err := c.Bcast(-1, nil); err != mpig.ErrBadRank {
			return fmt.Errorf("Bcast bad root = %v", err)
		}
		return nil
	})
	noErrors(t, errs)
}

func TestRecvTimeoutSurfacesAsError(t *testing.T) {
	errs := launch(t, []string{"m1"}, 2, func(c *mpig.Comm) error {
		c.OpTimeout = time.Second
		if c.Rank() == 1 {
			_, err := c.Recv(0, 9)
			if err == nil {
				return fmt.Errorf("Recv with no sender succeeded")
			}
		}
		return nil
	})
	noErrors(t, errs)
}
