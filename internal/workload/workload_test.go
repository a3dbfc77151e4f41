package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cogrid/internal/lrm"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

func model() Model {
	return Model{
		MeanInterarrival: 5 * time.Minute,
		MaxSize:          64,
		MinRuntime:       time.Minute,
		MaxRuntime:       2 * time.Hour,
	}
}

func TestGenerateRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	jobs := model().Generate(rng, 24*time.Hour)
	if len(jobs) < 100 {
		t.Fatalf("only %d jobs over 24h at 5m interarrival", len(jobs))
	}
	var prev time.Duration
	for i, j := range jobs {
		if j.At < prev {
			t.Fatalf("arrivals not ordered at %d", i)
		}
		prev = j.At
		if j.At >= 24*time.Hour {
			t.Fatalf("arrival %v beyond horizon", j.At)
		}
		if j.Size < 1 || j.Size > 64 {
			t.Fatalf("size %d out of range", j.Size)
		}
		if j.Runtime < time.Minute || j.Runtime > 2*time.Hour {
			t.Fatalf("runtime %v out of range", j.Runtime)
		}
		if j.Limit < j.Runtime {
			t.Fatalf("limit %v below runtime %v", j.Limit, j.Runtime)
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a := model().Generate(rand.New(rand.NewSource(7)), 12*time.Hour)
	b := model().Generate(rand.New(rand.NewSource(7)), 12*time.Hour)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs", i)
		}
	}
}

func TestPowerOfTwoBias(t *testing.T) {
	m := model()
	m.PowerOfTwoProb = 1.0
	rng := rand.New(rand.NewSource(3))
	jobs := m.Generate(rng, 24*time.Hour)
	for _, j := range jobs {
		if j.Size&(j.Size-1) != 0 {
			t.Fatalf("size %d not a power of two with prob 1", j.Size)
		}
	}
}

func TestForLoadHitsTargetUtilization(t *testing.T) {
	for _, rho := range []float64{0.3, 0.6, 0.9} {
		m := ForLoad(rho, 64, 10*time.Minute, 2*time.Hour)
		rng := rand.New(rand.NewSource(11))
		const horizon = 30 * 24 * time.Hour
		jobs := m.Generate(rng, horizon)
		got := offeredLoad(jobs, 64, horizon)
		if got < rho*0.8 || got > rho*1.2 {
			t.Errorf("rho %.1f: offered load = %.3f (want within 20%%)", rho, got)
		}
	}
}

// Property: offered load scales linearly with arrival rate.
func TestOfferedLoadScalesProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := model()
		fast := m
		fast.MeanInterarrival = m.MeanInterarrival / 2
		const horizon = 10 * 24 * time.Hour
		slow := offeredLoad(m.Generate(rand.New(rand.NewSource(seed)), horizon), 64, horizon)
		quick2 := offeredLoad(fast.Generate(rand.New(rand.NewSource(seed)), horizon), 64, horizon)
		// Same seed, double rate: roughly double the load.
		ratio := quick2 / slow
		return ratio > 1.5 && ratio < 2.6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDriveSubmitsAndRuns(t *testing.T) {
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	host := net.AddHost("m")
	m := lrm.NewMachine(host, 16, lrm.Config{Mode: lrm.Batch})
	RegisterExecutable(m, "bg")
	jobs := []Job{
		{At: time.Minute, Size: 8, Runtime: 10 * time.Minute, Limit: 30 * time.Minute},
		{At: 2 * time.Minute, Size: 16, Runtime: 5 * time.Minute, Limit: 20 * time.Minute},
	}
	Drive(sim, m, "bg", jobs)
	err := sim.Run("main", func() {
		sim.SleepUntil(90 * time.Second)
		info := m.QueueInfo()
		if info.RunningJobs != 1 {
			t.Errorf("at t=90s: %d running jobs, want 1", info.RunningJobs)
		}
		// Let everything drain; the 16-wide job runs after the first.
		sim.SleepUntil(time.Hour)
		info = m.QueueInfo()
		if info.RunningJobs != 0 || info.QueuedJobs != 0 {
			t.Errorf("at t=1h queue not drained: %+v", info)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestRegisterExecutableRejectsBadEnv(t *testing.T) {
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	host := net.AddHost("m")
	m := lrm.NewMachine(host, 4, lrm.Config{Mode: lrm.Fork})
	RegisterExecutable(m, "bg")
	err := sim.Run("main", func() {
		job, err := m.Submit(lrm.JobSpec{Executable: "bg", Count: 1})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		job.Done().Wait()
		if job.State() != lrm.StateFailed {
			t.Errorf("job without runtime env = %v, want FAILED", job.State())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// offeredLoad is the workload's demand as a fraction of a machine's
// capacity over the horizon: sum(size_i * runtime_i) / (procs * horizon).
func offeredLoad(jobs []Job, procs int, horizon time.Duration) float64 {
	var work float64
	for _, j := range jobs {
		work += float64(j.Size) * j.Runtime.Seconds()
	}
	return work / (float64(procs) * horizon.Seconds())
}
