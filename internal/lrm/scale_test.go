package lrm

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// naiveShadow is the pre-index shadow-time computation: copy the
// running map, sort by expected end, accumulate. It is the oracle the
// incremental release index must agree with. Caller holds m.mu.
func naiveShadow(m *Machine, need int) time.Duration {
	avail := m.available()
	if need <= avail {
		return m.sim.Now()
	}
	type rel struct {
		at    time.Duration
		procs int
	}
	rels := make([]rel, 0, len(m.running))
	for job, end := range m.running {
		rels = append(rels, rel{at: end, procs: job.spec.Count})
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].at < rels[j].at })
	for _, r := range rels {
		avail += r.procs
		if need <= avail {
			return r.at
		}
	}
	return m.sim.Now() + defaultLimit
}

// naiveAscend lists live releases sorted by (at) from the running
// map, for comparing the index's ascent order. Caller holds m.mu.
func naiveAscend(m *Machine) []relPoint {
	out := make([]relPoint, 0, len(m.running))
	for job, end := range m.running {
		out = append(out, relPoint{at: end, procs: job.spec.Count})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// TestReleaseIndexMatchesNaiveRecompute drives a batch machine through
// random start/finish interleavings (via runningAdd and the real removal
// path's delete) and checks, after every mutation, that the incremental
// release index reproduces the naive recompute: same ascent multiset and
// same shadow time for every relevant request size.
func TestReleaseIndexMatchesNaiveRecompute(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sim := vtime.NewSeeded(seed)
			net := transport.New(sim, transport.UniformLatency(time.Millisecond))
			host := net.AddHost("origin")
			m := NewMachine(host, 512, Config{Mode: Batch})
			rng := rand.New(rand.NewSource(seed * 97))
			err := sim.Run("driver", func() {
				var active []*Job
				check := func() {
					// Ascent order: same (at, procs) sequence as sorting the
					// running map. Ties in at may permute, so compare as
					// multisets bucketed by at.
					var got []relPoint
					m.ascendReleases(func(at time.Duration, procs int) bool {
						got = append(got, relPoint{at: at, procs: procs})
						return true
					})
					want := naiveAscend(m)
					if len(got) != len(want) {
						t.Fatalf("ascent visited %d releases, naive has %d", len(got), len(want))
					}
					sort.Slice(got, func(i, j int) bool {
						if got[i].at != got[j].at {
							return got[i].at < got[j].at
						}
						return got[i].procs < got[j].procs
					})
					sort.Slice(want, func(i, j int) bool {
						if want[i].at != want[j].at {
							return want[i].at < want[j].at
						}
						return want[i].procs < want[j].procs
					})
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("ascent[%d] = %+v, naive %+v", i, got[i], want[i])
						}
					}
					// Shadow times agree for every request size that matters.
					for _, need := range []int{1, 32, 256, 512} {
						if g, w := m.shadowTimeIndex(need), naiveShadow(m, need); g != w {
							t.Fatalf("shadow(need=%d) index=%v naive=%v", need, g, w)
						}
					}
					// Index never leaks: at most one entry (live or stale)
					// per runningAdd call, and every live job is found.
					if m.releases.len() < len(m.running) {
						t.Fatalf("index holds %d entries, %d jobs running", m.releases.len(), len(m.running))
					}
				}
				for step := 0; step < 400; step++ {
					switch {
					case rng.Intn(3) > 0 && len(m.running) < 64:
						// Start: mimic the scheduler's bookkeeping.
						m.nextJobID++
						job := &Job{
							machine: m,
							id:      fmt.Sprintf("%s/job%d", m.name, m.nextJobID),
							spec:    JobSpec{Count: 1 + rng.Intn(64), TimeLimit: time.Duration(rng.Intn(3600)) * time.Second},
						}
						m.runningAdd(job)
						active = append(active, job)
					case len(active) > 0:
						// Finish: the same delete finishJob performs.
						i := rng.Intn(len(active))
						job := active[i]
						active[i] = active[len(active)-1]
						active = active[:len(active)-1]
						delete(m.running, job)
					}
					check()
					if rng.Intn(4) == 0 {
						sim.Sleep(time.Duration(rng.Intn(int(time.Minute))))
					}
				}
			})
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
		})
	}
}

// shadowTimeIndex is shadowTime generalized to a raw request
// size, so the property test can probe sizes without fabricating head
// jobs. Caller holds m.mu.
func (m *Machine) shadowTimeIndex(need int) time.Duration {
	avail := m.available()
	if need <= avail {
		return m.sim.Now()
	}
	shadow := m.sim.Now() + defaultLimit
	m.ascendReleases(func(at time.Duration, procs int) bool {
		avail += procs
		if need <= avail {
			shadow = at
			return false
		}
		return true
	})
	return shadow
}

// TestBatchStress queues 10⁵ jobs on one large batch machine and runs the
// backlog to completion — the single-machine slice of the B4 scale study,
// exercising the release index, the bounded backfill scan, the passive
// wall-limit timers, and terminal-job retirement under real scheduling.
func TestBatchStress(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-job stress run skipped in -short mode")
	}
	const jobs = 100_000
	sim := vtime.NewSeeded(42)
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	host := net.AddHost("origin")
	m := NewMachine(host, 1024, Config{
		Mode:           Batch,
		Costs:          Costs{Fork: time.Millisecond, ProcStartup: time.Millisecond},
		RetireTerminal: true,
	})
	rng := rand.New(rand.NewSource(7))
	m.RegisterExecutable("work", func(p *Proc) error {
		return p.Work(time.Duration(1+p.Rank%120)*time.Second, time.Minute)
	})
	err := sim.Run("driver", func() {
		handles := make([]*Job, 0, jobs)
		for i := 0; i < jobs; i++ {
			job, err := m.Submit(JobSpec{
				Executable: "work",
				Count:      1 + rng.Intn(32),
				TimeLimit:  time.Hour,
			})
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			handles = append(handles, job)
		}
		for _, job := range handles {
			job.Done().Wait()
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	st := m.Stats()
	if st.Done+st.Failed != jobs {
		t.Fatalf("Stats done=%d failed=%d, want total %d", st.Done, st.Failed, jobs)
	}
	if st.Failed != 0 {
		t.Fatalf("%d jobs failed; first-class batch work should all finish", st.Failed)
	}
	// Processor conservation after quiescence.
	if free := m.FreeProcessors(); free != m.Processors() {
		t.Fatalf("FreeProcessors = %d after quiescence, want %d", free, m.Processors())
	}
	// RetireTerminal bounds the job table.
	tableLen := len(m.jobs)
	idxLen := m.releases.len()
	// Lazy deletion may leave entries that went stale after the final
	// ascent; all of them must be stale (their jobs finished), and the
	// next ascent would drain them.
	stale := 0
	for _, e := range m.releases.h {
		if _, running := m.running[e.job]; !running {
			stale++
		}
	}
	if tableLen != 0 {
		t.Fatalf("job table holds %d entries after retirement", tableLen)
	}
	if stale != idxLen {
		t.Fatalf("release index holds %d live entries after quiescence", idxLen-stale)
	}
}

// A submission to a full batch machine with a backlog — most of what a
// saturated machine is asked to do — costs the job and its id: no signal or
// channel of its own, no formatted name, and a scheduling pass that finds no
// processor free computes no shadow time, walks no queue and allocates
// nothing.
func TestFullMachineSubmitAllocations(t *testing.T) {
	sim, m := newMachine(4, Batch)
	registerWork(m, time.Hour)
	err := sim.Run("driver", func() {
		spec := JobSpec{Executable: "work", Count: 2, TimeLimit: 2 * time.Hour}
		for i := 0; i < 600; i++ { // two run, the rest queue
			if _, err := m.Submit(spec); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := m.Submit(spec); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		})
		if allocs > 2 {
			t.Errorf("%v allocations per submission to a full machine, want 2: the job and its id", allocs)
		}
		if free, queued := m.FreeProcessors(), m.QueueInfo().QueuedJobs; free != 0 || queued != 799 {
			t.Errorf("%d processors free and %d jobs queued, want 0 and 799", free, queued)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestBatchJobLifeAllocations prices a batch job's whole life on an idle
// machine that retires what has finished: submitted, run to Done, and its
// event stream read by nobody: 7 allocations. The stream's first slots are
// in the job, so the two states it sends allocate nothing; they grew the
// stream's ring before, a ninth. The wall-limit timer is one allocation,
// its handle holding its entry; it was two, the eighth.
func TestBatchJobLifeAllocations(t *testing.T) {
	sim := vtime.New()
	host := transport.New(sim, transport.UniformLatency(time.Millisecond)).AddHost("origin")
	m := NewMachine(host, 4, Config{Mode: Batch, RetireTerminal: true})
	registerWork(m, time.Second)
	err := sim.Run("submitter", func() {
		life := func() {
			job, err := m.Submit(JobSpec{Executable: "work", Count: 1, TimeLimit: time.Minute})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			job.Done().Wait()
			if job.State() != StateDone {
				t.Fatalf("job ended %v, want DONE", job.State())
			}
		}
		for i := 0; i < 100; i++ { // timer entries, run queue, the job table's buckets
			life()
		}
		allocs := testing.AllocsPerRun(200, life)
		t.Logf("a batch job's life: %v allocations", allocs)
		if allocs > 7 {
			t.Errorf("a batch job submitted and run to Done: %v allocations, want <= 7", allocs)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}

// TestJobSize pins what a job costs before it runs: its event stream's
// first slots fit in the 512-byte size class a job took without them.
func TestJobSize(t *testing.T) {
	if size := unsafe.Sizeof(Job{}); size > 512 {
		t.Errorf("Job is %d bytes, want <= 512", size)
	}
}

// TestReleaseIndexStaysBounded runs 10 000 one-processor jobs, one after
// another, through a batch machine that retires what has finished. Its queue
// never holds a job when a scheduling pass looks, so no pass ever ascends
// the release index, which is the only place a finished job's entry used to
// be dropped: the index grew by an entry, and the whole retired job the
// entry points at, for every job the machine had ever run.
func TestReleaseIndexStaysBounded(t *testing.T) {
	sim := vtime.New()
	host := transport.New(sim, transport.UniformLatency(time.Millisecond)).AddHost("origin")
	m := NewMachine(host, 4, Config{Mode: Batch, RetireTerminal: true})
	registerWork(m, time.Second)
	collected := make(chan struct{})
	peak := 0
	err := sim.Run("driver", func() {
		for i := 0; i < 10000; i++ {
			job, err := m.Submit(JobSpec{Executable: "work", Count: 1, TimeLimit: time.Minute})
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if i == 0 {
				runtime.SetFinalizer(job, func(*Job) { close(collected) })
			}
			job.Done().Wait()
			peak = max(peak, m.releases.len())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if stats := m.Stats(); stats.Done != 10000 {
		t.Fatalf("%d jobs done, want 10000", stats.Done)
	}
	// One job runs at a time: the sweep starts above 2·1 + 16 entries.
	if peak > 19 {
		t.Errorf("the release index peaked at %d entries over 10 000 jobs run one at a time, want <= 19", peak)
	}
	finished := false
	for i := 0; i < 50 && !finished; i++ {
		runtime.GC()
		select {
		case <-collected:
			finished = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !finished {
		t.Error("the first of 10 000 retired jobs is still reachable: a release entry holds it")
	}
}
