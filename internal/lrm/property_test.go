package lrm

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// Property: under a random stream of batch jobs, the scheduler never
// oversubscribes the machine and every job reaches a terminal state.
func TestBatchSchedulerCapacityInvariant(t *testing.T) {
	f := func(seed int64) bool {
		sim := vtime.NewSeeded(seed)
		net := transport.New(sim, transport.UniformLatency(time.Millisecond))
		host := net.AddHost("m")
		const procs = 32
		m := NewMachine(host, procs, Config{Mode: Batch})
		rng := rand.New(rand.NewSource(seed))

		running := 0
		peak := 0
		ok := true
		m.RegisterExecutable("job", func(p *Proc) error {
			if p.Rank == 0 {
				running += p.Count
				if running > procs {
					ok = false
				}
				if running > peak {
					peak = running
				}
				defer func() {
					running -= p.Count
				}()
			}
			return p.Work(time.Duration(1+rng.Intn(30))*time.Second, time.Second)
		})

		var jobs []*Job
		err := sim.Run("driver", func() {
			for i := 0; i < 20; i++ {
				count := 1 + rng.Intn(procs)
				limit := time.Duration(5+rng.Intn(120)) * time.Second
				job, err := m.Submit(JobSpec{Executable: "job", Count: count, TimeLimit: limit})
				if err != nil {
					ok = false
					return
				}
				jobs = append(jobs, job)
				sim.Sleep(time.Duration(rng.Intn(10)) * time.Second)
			}
			for _, job := range jobs {
				job.Done().Wait()
			}
		})
		if err != nil {
			return false
		}
		for _, job := range jobs {
			if !job.State().Terminal() {
				return false
			}
		}
		return ok && peak <= procs
	}
	cfg := &quick.Config{
		MaxCount: 15,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: random reservation requests that are admitted never
// oversubscribe the machine at any instant.
func TestReservationAdmissionInvariant(t *testing.T) {
	f := func(seed int64) bool {
		sim := vtime.NewSeeded(seed)
		net := transport.New(sim, transport.UniformLatency(time.Millisecond))
		host := net.AddHost("m")
		const procs = 64
		m := NewMachine(host, procs, Config{Mode: Batch})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 40; i++ {
			count := 1 + rng.Intn(procs)
			start := time.Duration(rng.Intn(3600)) * time.Second
			duration := time.Duration(1+rng.Intn(1800)) * time.Second
			m.Reserve(count, start, duration) // admission may refuse; fine
		}
		// Verify capacity at every reservation boundary.
		reservations := m.Reservations()
		var points []time.Duration
		for _, r := range reservations {
			points = append(points, r.Start, r.End-1)
		}
		for _, p := range points {
			total := 0
			for _, r := range reservations {
				if r.Start <= p && p < r.End {
					total += r.Count
				}
			}
			if total > procs {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 25,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
