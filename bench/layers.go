package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"cogrid/internal/agent"
	"cogrid/internal/broker"
	"cogrid/internal/core"
	"cogrid/internal/federation"
	"cogrid/internal/flightrec"
	"cogrid/internal/gram"
	"cogrid/internal/grid"
	"cogrid/internal/gsi"
	"cogrid/internal/lrm"
	"cogrid/internal/mds"
	"cogrid/internal/metrics"
	"cogrid/internal/nis"
	"cogrid/internal/rpc"
	"cogrid/internal/rsl"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
	"cogrid/internal/wire"
)

// layerDriver exercises one layer alone through its public API for a
// fixed iteration count. run builds what it needs, then hands the loop to
// timed; whatever it does outside timed is not measured.
type layerDriver struct {
	name  string
	iters int
	run   func(n int, timed func(loop func()))
}

// layerCost is one driver's measured cost per iteration.
type layerCost struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// runLayers runs every family-A driver once. scale < 1 shrinks the
// iteration counts for the smoke test.
func runLayers(spans *spanLog, scale float64) map[string]layerCost {
	out := map[string]layerCost{}
	for _, d := range layerDrivers {
		n := scaled(d.iters, scale)
		var cost layerCost
		sp := spans.begin("layer:"+d.name, "", -1)
		d.run(n, func(loop func()) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			loop()
			wall := time.Since(start)
			runtime.ReadMemStats(&m1)
			cost = layerCost{
				NsPerOp:     float64(wall.Nanoseconds()) / float64(n),
				AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(n),
			}
		})
		spans.end(sp)
		out[d.name] = cost
	}
	return out
}

// noop exits at once; barrierExec passes the DUROC barrier and exits,
// releasing its processors immediately.
func noop(*lrm.Proc) error { return nil }

func barrierExec(p *lrm.Proc) error {
	rt, err := core.Attach(p)
	if err != nil {
		return err
	}
	defer rt.Close()
	_, err = rt.Barrier(true, "", 0)
	return err
}

// pair is a two-host network on a fresh kernel.
func pair() (*vtime.Sim, *transport.Host, *transport.Host) {
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	return sim, net.AddHost("a"), net.AddHost("b")
}

func benchEnvelope() wire.Envelope {
	return wire.Envelope{
		Kind: wire.KindCall, ID: 42, Method: "submit",
		Req: "req-17", Span: "/submit/attempt-1/call:submit#42",
		Body: []byte(`{"rsl":"+(&(executable=app)(count=16))"}`),
	}
}

func benchEvent() trace.Event {
	return trace.Event{
		At: time.Millisecond, Dur: 2 * time.Millisecond, Cat: "rpc", Name: "call:submit",
		Proc: "workstation", Thr: "client", ID: "flow#1", Req: "req-1", Span: "/call",
		Args: []trace.Arg{{Key: "outcome", Val: "ok"}},
	}
}

// directoryGrid is a grid of machines publishing to an MDS directory.
func directoryGrid(names ...string) (*grid.Grid, transport.Addr) {
	g := grid.New(grid.Options{})
	_, err := mds.NewServer(g.Net.AddHost("mds0"), 0)
	must(err)
	dir := transport.Addr{Host: "mds0", Service: mds.ServiceName}
	for _, name := range names {
		m := g.AddMachine(name, 16, lrm.Batch)
		mds.Publish(m, dir, g.Contact(name), 31*time.Second, 4, 16)
	}
	g.RegisterEverywhere("app", barrierExec)
	return g, dir
}

func brokerRequest(key string) broker.Request {
	return broker.Request{Tenant: "bench", Sites: 2, ProcsPerSite: 4, Executable: "app", Spares: 1, Key: key}
}

// lrmJobs submits n four-process jobs to one machine, each to completion.
func lrmJobs(mode lrm.Mode) func(n int, timed func(func())) {
	return func(n int, timed func(func())) {
		sim, host, _ := pair()
		m := lrm.NewMachine(host, 64, lrm.Config{
			Mode:  mode,
			Costs: lrm.Costs{Fork: time.Millisecond, ProcStartup: time.Millisecond},
		})
		m.RegisterExecutable("noop", noop)
		timed(func() {
			must(sim.Run("driver", func() {
				for i := 0; i < n; i++ {
					job, err := m.Submit(lrm.JobSpec{Executable: "noop", Count: 4})
					must(err)
					job.Done().Wait()
				}
			}))
		})
	}
}

var layerDrivers = []layerDriver{
	{"vtime.timer", 20000, func(n int, timed func(func())) {
		sim := vtime.New()
		timed(func() {
			must(sim.Run("driver", func() {
				for i := 0; i < n; i++ {
					sim.Sleep(time.Microsecond)
				}
			}))
		})
	}},
	{"vtime.pingpong", 20000, func(n int, timed func(func())) {
		sim := vtime.New()
		ping := vtime.NewChan[int](sim, "ping", 0)
		pong := vtime.NewChan[int](sim, "pong", 0)
		sim.GoDaemon("echo", func() {
			for {
				v, ok := ping.Recv()
				if !ok {
					return
				}
				pong.Send(v)
			}
		})
		timed(func() {
			must(sim.Run("driver", func() {
				for i := 0; i < n; i++ {
					ping.Send(i)
					pong.Recv()
				}
			}))
		})
	}},
	{"vtime.spawn", 20000, func(n int, timed func(func())) {
		sim := vtime.New()
		timed(func() {
			must(sim.Run("driver", func() {
				wg := vtime.NewWaitGroup(sim)
				for i := 0; i < n; i++ {
					wg.Add(1)
					sim.Go("p", wg.Done)
					wg.Wait()
				}
			}))
		})
	}},
	{"transport.roundtrip", 5000, func(n int, timed func(func())) {
		sim, a, b := pair()
		l, err := b.Listen("echo")
		must(err)
		sim.GoDaemon("server", func() {
			conn, ok := l.Accept()
			if !ok {
				return
			}
			for {
				msg, err := conn.Recv()
				if err != nil || conn.Send(msg) != nil {
					return
				}
			}
		})
		timed(func() {
			must(sim.Run("driver", func() {
				conn, err := a.Dial(l.Addr())
				must(err)
				defer conn.Close()
				payload := []byte("ping")
				for i := 0; i < n; i++ {
					must(conn.Send(payload))
					_, err := conn.Recv()
					must(err)
				}
			}))
		})
	}},
	{"wire.encode", 200000, func(n int, timed func(func())) {
		env := benchEnvelope()
		var enc wire.Encoder
		timed(func() {
			for i := 0; i < n; i++ {
				buf := wire.GetBuf()
				*buf = enc.Encode((*buf)[:0], &env)
				wire.PutBuf(buf)
			}
		})
	}},
	{"wire.decode", 200000, func(n int, timed func(func())) {
		env := benchEnvelope()
		var enc wire.Encoder
		enc.Encode(nil, &env) // consume the prologue
		frame := enc.Encode(nil, &env)
		var dec wire.Decoder
		timed(func() {
			for i := 0; i < n; i++ {
				var out wire.Envelope
				must(dec.Decode(frame, &out))
			}
		})
	}},
	{"rpc.call", 3000, func(n int, timed func(func())) {
		sim, a, b := pair()
		l, err := b.Listen("svc")
		must(err)
		rpc.Serve(sim, l, rpc.HandlerFuncs{
			Call: func(_ *rpc.ServerConn, _ string, body json.RawMessage) (any, error) { return body, nil },
		}, nil)
		timed(func() {
			must(sim.Run("driver", func() {
				conn, err := a.Dial(l.Addr())
				must(err)
				c := rpc.NewClient(sim, conn)
				defer c.Close()
				var out int
				for i := 0; i < n; i++ {
					must(c.Call("ping", i, &out, time.Minute))
				}
			}))
		})
	}},
	{"gsi.handshake", 1000, func(n int, timed func(func())) {
		sim, a, b := pair()
		reg := gsi.NewRegistry()
		user, host := reg.Issue("user/grid"), reg.Issue("host/b")
		l, err := b.Listen("auth")
		must(err)
		sim.GoDaemon("server", func() {
			for {
				conn, ok := l.Accept()
				if !ok {
					return
				}
				if _, err := gsi.ServerHandshake(sim, conn, host, reg, gsi.DefaultCost); err != nil {
					return
				}
			}
		})
		timed(func() {
			must(sim.Run("driver", func() {
				for i := 0; i < n; i++ {
					conn, err := a.Dial(l.Addr())
					must(err)
					_, err = gsi.ClientHandshake(sim, conn, user, reg, gsi.DefaultCost)
					must(err)
					conn.Close()
				}
			}))
		})
	}},
	{"nis.initgroups", 1000, func(n int, timed func(func())) {
		g := grid.New(grid.Options{})
		timed(func() {
			must(g.Sim.Run("driver", func() {
				for i := 0; i < n; i++ {
					_, err := nis.Initgroups(g.Workstation, g.NISAddr, grid.DefaultUser, time.Minute)
					must(err)
				}
			}))
		})
	}},
	{"rsl.parse", 2000, func(n int, timed func(func())) {
		// The 8-subjob multirequest duroc_wide submits.
		var req core.Request
		for i := 0; i < 8; i++ {
			req.Subjobs = append(req.Subjobs, core.SubjobSpec{
				Label:   fmt.Sprintf("sj%d", i),
				Contact: transport.Addr{Host: fmt.Sprintf("site%02d", i), Service: gram.ServiceName},
				Count:   8, Executable: "app",
			})
		}
		src := req.RSL()
		timed(func() {
			for i := 0; i < n; i++ {
				_, err := rsl.Parse(src)
				must(err)
			}
		})
	}},
	{"gram.submit", 500, func(n int, timed func(func())) {
		g := grid.New(grid.Options{})
		g.AddMachine("m0", 64, lrm.Fork)
		g.RegisterEverywhere("noop", noop)
		timed(func() {
			must(g.Sim.Run("driver", func() {
				c, err := g.Dial("m0")
				must(err)
				defer c.Close()
				for i := 0; i < n; i++ {
					_, err := c.Submit("&(executable=noop)(count=4)")
					must(err)
				}
			}))
		})
	}},
	{"lrm.fork_job", 2000, lrmJobs(lrm.Fork)},
	{"lrm.batch_job", 2000, lrmJobs(lrm.Batch)},
	{"mds.query", 500, func(n int, timed func(func())) {
		names := make([]string, 24)
		for i := range names {
			names[i] = fmt.Sprintf("site%02d", i)
		}
		g, dir := directoryGrid(names...)
		timed(func() {
			must(g.Sim.Run("driver", func() {
				g.Sim.Sleep(time.Second) // first publishes land
				c, err := mds.Dial(g.Workstation, dir)
				must(err)
				defer c.Close()
				for i := 0; i < n; i++ {
					recs, err := c.Query(mds.Filter{MinFree: 8})
					must(err)
					if len(recs) != len(names) {
						panic(fmt.Sprintf("mds.query: %d records, want %d", len(recs), len(names)))
					}
				}
			}))
		})
	}},
	{"core.coalloc2", 50, func(n int, timed func(func())) {
		g := grid.New(grid.Options{})
		g.AddMachine("m0", 32, lrm.Fork)
		g.AddMachine("m1", 32, lrm.Fork)
		g.RegisterEverywhere("app", barrierExec)
		ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{Credential: g.UserCred, Registry: g.Registry})
		must(err)
		timed(func() {
			must(g.Sim.Run("driver", func() {
				for i := 0; i < n; i++ {
					res, err := agent.Atomic(ctrl, core.Request{Subjobs: []core.SubjobSpec{
						{Contact: g.Contact("m0"), Count: 2, Executable: "app"},
						{Contact: g.Contact("m1"), Count: 2, Executable: "app"},
					}}, time.Hour)
					must(err)
					res.Job.Done().Wait()
				}
			}))
		})
	}},
	{"broker.submit", 40, func(n int, timed func(func())) {
		g, dir := directoryGrid("site00", "site01", "site02")
		b, err := broker.New(g.Net.AddHost("broker0"), core.ControllerConfig{Credential: g.UserCred, Registry: g.Registry},
			broker.Options{Directory: dir, QueueBound: 8, Workers: 2})
		must(err)
		timed(func() {
			must(g.Sim.Run("driver", func() {
				c, err := broker.Dial(g.Workstation, b.Contact())
				must(err)
				defer c.Close()
				for i := 0; i < n; i++ {
					reply, _, err := c.SubmitWait(brokerRequest(""), 0, 50)
					must(err)
					if !reply.OK() {
						panic("broker.submit: " + reply.Error)
					}
				}
			}))
		})
	}},
	{"federation.forward", 40, func(n int, timed func(func())) {
		g, dir := directoryGrid("site00", "site01", "site02")
		fed, err := federation.New(g.Net, core.ControllerConfig{Credential: g.UserCred, Registry: g.Registry},
			federation.Options{Replicas: 2, Directory: dir, Broker: broker.Options{Directory: dir, QueueBound: 8, Workers: 2}})
		must(err)
		// Keys the shard map gives to fed01, submitted to fed00: every
		// request pays one broker-to-broker forward.
		entry, shards := fed.Replica(0), fed.Replica(0).ShardMapView()
		var keys []string
		for i := 0; len(keys) < n; i++ {
			if key := fmt.Sprintf("key%04d", i); shards.Owner(key) != entry.Name() {
				keys = append(keys, key)
			}
		}
		timed(func() {
			must(g.Sim.Run("driver", func() {
				c, err := broker.Dial(g.Workstation, entry.BrokerContact())
				must(err)
				defer c.Close()
				for _, key := range keys {
					reply, _, err := c.SubmitWait(brokerRequest(key), 0, 50)
					must(err)
					if !reply.OK() || reply.Hops != 1 {
						panic(fmt.Sprintf("federation.forward: hops=%d error=%q", reply.Hops, reply.Error))
					}
				}
			}))
		})
	}},
	{"trace.emit", 200000, func(n int, timed func(func())) {
		tr := trace.New(vtime.New())
		ev := benchEvent()
		timed(func() {
			for i := 0; i < n; i++ {
				tr.Emit(ev)
			}
		})
	}},
	{"trace.export", 100000, func(n int, timed func(func())) {
		events := make([]trace.Event, n)
		for i := range events {
			events[i] = benchEvent()
		}
		must(trace.WriteJSONL(io.Discard, events[:1])) // warm the buffer pool
		timed(func() { must(trace.WriteJSONL(io.Discard, events)) })
	}},
	{"metrics.hist_record", 1000000, func(n int, timed func(func())) {
		h := metrics.NewHistogram()
		timed(func() {
			for i := 0; i < n; i++ {
				h.Record(int64(i))
			}
		})
	}},
	{"flightrec.record", 500000, func(n int, timed func(func())) {
		rec := flightrec.New(vtime.New(), flightrec.Options{RingCap: 512})
		ev := benchEvent()
		rec.Record(ev) // create the ring outside the measured region
		timed(func() {
			for i := 0; i < n; i++ {
				rec.Record(ev)
			}
		})
	}},
}
