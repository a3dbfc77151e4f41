// Package grid assembles simulated computational grids: a client
// workstation, a NIS server, and any number of GRAM-fronted machines on a
// common network, with shared security credentials — the testbed every
// experiment, example, and benchmark builds on.
package grid

import (
	"fmt"
	"io"
	"sort"
	"time"

	"cogrid/internal/flightrec"
	"cogrid/internal/gram"
	"cogrid/internal/gsi"
	"cogrid/internal/lrm"
	"cogrid/internal/metrics"
	"cogrid/internal/nis"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// DefaultUser is the principal experiments submit as.
const DefaultUser = "user/grid"

// Options configures a grid testbed. Zero values select the paper's
// calibration: 1 ms one-way network latency (a ~2 ms round trip between
// client and resource, as in Section 4.2), Figure 3 cost models, and a
// deterministic seed.
type Options struct {
	Seed         int64
	Latency      time.Duration
	LatencyModel transport.LatencyModel // overrides Latency when set
	User         string
	AuthCost     gsi.CostModel
	LRMCosts     lrm.Costs
	// Trace attaches a trace.Tracer and trace.Counters to the network,
	// capturing structured events from every layer (transport hops, RPC
	// calls, GRAM state transitions, DUROC commit and barrier phases).
	Trace bool
}

// Grid is an assembled testbed.
type Grid struct {
	Sim         *vtime.Sim
	Net         *transport.Network
	Registry    *gsi.Registry
	NISAddr     transport.Addr
	NIS         *nis.Server
	Workstation *transport.Host
	UserCred    gsi.Credential
	Tracer      *trace.Tracer
	Counters    *trace.Counters
	Gauges      *metrics.GaugeSet
	Hists       *metrics.HistogramSet
	Samples     *metrics.SampleLogSet
	Flight      *flightrec.Recorder

	opts     Options
	machines map[string]*lrm.Machine
	servers  map[string]*gram.Server
}

// New builds a grid with a client workstation and a NIS server.
func New(opts Options) *Grid {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Latency == 0 {
		opts.Latency = time.Millisecond
	}
	if opts.User == "" {
		opts.User = DefaultUser
	}
	sim := vtime.NewSeeded(opts.Seed)
	lm := opts.LatencyModel
	if lm == nil {
		lm = transport.UniformLatency(opts.Latency)
	}
	net := transport.New(sim, lm)
	g := &Grid{
		Sim:         sim,
		Net:         net,
		Registry:    gsi.NewRegistry(),
		Workstation: net.AddHost("workstation"),
		opts:        opts,
		machines:    make(map[string]*lrm.Machine),
		servers:     make(map[string]*gram.Server),
	}
	if opts.Trace {
		g.Tracer = trace.New(sim)
		g.Counters = trace.NewCounters()
		g.Gauges = metrics.NewGaugeSet(sim)
		g.Hists = metrics.NewHistogramSet()
		g.Samples = metrics.NewSampleLogSet(sim)
		g.Flight = flightrec.New(sim, flightrec.Options{})
		g.Flight.SetCounters(g.Counters)
		net.SetTracer(g.Tracer)
		net.SetCounters(g.Counters)
		net.SetGauges(g.Gauges)
		net.SetHists(g.Hists)
		net.SetSamples(g.Samples)
		net.SetFlightRec(g.Flight)
		// The flight recorder taps the tracer: every event any layer emits
		// is mirrored into its bounded per-component ring, so the black box
		// is always armed without any layer opting in.
		g.Tracer.SetTap(g.Flight)
		// Kernel probes: timer lead times and dispatch batch sizes land in
		// the same registry as the layer histograms. Recording neither
		// blocks nor calls back into the kernel, so the dispatcher may
		// record in the middle of a dispatch.
		sim.SetStats(vtime.KernelStats{
			TimerLead:     g.Hists.H("vtime.timer.lead"),
			DispatchBatch: g.Hists.H("vtime.dispatch.batch"),
		})
	}
	nisHost := net.AddHost("nis0")
	srv, err := nis.NewServer(nisHost, 0)
	if err != nil {
		panic(err) // fresh host: cannot fail
	}
	g.NIS = srv
	g.NISAddr = transport.Addr{Host: "nis0", Service: nis.ServiceName}
	g.UserCred = g.Registry.Issue(opts.User)
	srv.AddUser(opts.User, "users", "grid")
	return g
}

// AddMachine creates a machine with a gatekeeper. The machine's host takes
// the machine name.
func (g *Grid) AddMachine(name string, processors int, mode lrm.Mode) *lrm.Machine {
	if _, exists := g.machines[name]; exists {
		panic(fmt.Sprintf("grid: machine %q already exists", name))
	}
	host := g.Net.AddHost(name)
	machine := lrm.NewMachine(host, processors, lrm.Config{Mode: mode, Costs: g.opts.LRMCosts})
	server, err := gram.StartServer(machine, gram.ServerConfig{
		Credential: g.Registry.Issue("host/" + name),
		Registry:   g.Registry,
		AuthCost:   g.opts.AuthCost,
		NISAddr:    g.NISAddr,
	})
	if err != nil {
		panic(err) // fresh host: cannot fail
	}
	g.machines[name] = machine
	g.servers[name] = server
	return machine
}

// RestartMachine reboots a crashed machine's host and starts a fresh
// gatekeeper on it. The LRM keeps its job table — a crash severs the
// network (listeners, live connections), not the simulated scheduler
// state — so jobs that survived locally stay visible and cancellable,
// which lets a controller's orphan sweep drain a machine after it returns.
// Panics if the machine is unknown.
func (g *Grid) RestartMachine(name string) {
	machine, ok := g.machines[name]
	if !ok {
		panic(fmt.Sprintf("grid: restart of unknown machine %q", name))
	}
	machine.Host().RestoreCrashed()
	server, err := gram.StartServer(machine, gram.ServerConfig{
		Credential: g.Registry.Issue("host/" + name),
		Registry:   g.Registry,
		AuthCost:   g.opts.AuthCost,
		NISAddr:    g.NISAddr,
	})
	if err != nil {
		panic(err) // restored host has no listeners: cannot fail
	}
	g.servers[name] = server
}

// Machine returns a machine by name, or nil.
func (g *Grid) Machine(name string) *lrm.Machine { return g.machines[name] }

// Machines returns all machine names, sorted.
func (g *Grid) Machines() []string {
	out := make([]string, 0, len(g.machines))
	for name := range g.machines {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Contact returns the GRAM contact for a machine.
func (g *Grid) Contact(name string) transport.Addr {
	return transport.Addr{Host: name, Service: gram.ServiceName}
}

// RegisterEverywhere installs an executable on every existing machine.
func (g *Grid) RegisterEverywhere(name string, fn lrm.ExecFunc) {
	for _, m := range g.machines {
		m.RegisterExecutable(name, fn)
	}
}

// ClientConfig returns the GRAM client configuration for the grid user.
func (g *Grid) ClientConfig() gram.ClientConfig {
	return gram.ClientConfig{
		Credential: g.UserCred,
		Registry:   g.Registry,
		AuthCost:   g.opts.AuthCost,
	}
}

// Dial opens an authenticated GRAM connection from the workstation.
func (g *Grid) Dial(machine string) (*gram.Client, error) {
	return gram.Dial(g.Workstation, g.Contact(machine), g.ClientConfig())
}

// WriteMetrics writes every counter, gauge, and histogram the run
// collected in Prometheus text format. The counters are streamed from the
// registry (trace.Counters.Export), never collected into one sorted list.
// Gauges are sampled at the current virtual time. The output is
// deterministic for a fixed seed; without Options.Trace all registries are
// empty and the exposition is too.
func (g *Grid) WriteMetrics(w io.Writer) error {
	plain, fams := g.Counters.Export()
	return metrics.WritePrometheus(w, metrics.PromSnapshot{
		Counters:        plain,
		CounterFamilies: fams,
		Gauges:          g.Gauges,
		GaugeAt:         g.Sim.Now(),
		Hists:           g.Hists,
	})
}
