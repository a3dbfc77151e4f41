// Instrument reproduces the paper's supercomputer-enhanced-instrument
// scenario (reference [27]: real-time analysis of microtomography
// experiments at a photon source): a beamline instrument is required, a
// farm of reconstruction workers is interactive, and display devices are
// optional — they "join the computation as and when they become active",
// and their failure is ignored by the commitment procedure.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/grid"
	"cogrid/internal/lrm"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
)

const frames = 12

type msg struct {
	Type  string `json:"type"` // "frame", "recon", "display-join", "summary"
	Seq   int    `json:"seq,omitempty"`
	From  int    `json:"from,omitempty"`
	Done  int    `json:"done,omitempty"`
	Total int    `json:"total,omitempty"`
}

func send(conn *transport.Conn, m msg) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return conn.Send(raw)
}

func recv(conn *transport.Conn, timeout time.Duration) (msg, error) {
	raw, err := conn.RecvTimeout(timeout)
	if err != nil {
		return msg{}, err
	}
	var m msg
	return m, json.Unmarshal(raw, &m)
}

func main() {
	// Trace the whole run: every layer (transport, rpc, gram, duroc) plus
	// the application's own spans below share one event stream.
	g := grid.New(grid.Options{Seed: 11, Trace: true})
	g.AddMachine("aps-beamline", 4, lrm.Fork) // the instrument's control host
	for _, name := range []string{"recon1", "recon2", "recon3"} {
		g.AddMachine(name, 32, lrm.Fork)
	}
	g.AddMachine("cave-display", 4, lrm.Fork)   // joins late (slow startup)
	g.AddMachine("office-display", 4, lrm.Fork) // dead: optional, ignored
	g.Machine("cave-display").SetSlowFactor(20) // ~15s startup
	g.Machine("office-display").SetDown(true)   // never starts
	g.Machine("recon2").SetDown(true)           // interactive: substituted
	g.AddMachine("spare-recon", 32, lrm.Fork)   // substitution target

	g.RegisterEverywhere("instrument", instrument)
	g.RegisterEverywhere("recon", recon)
	g.RegisterEverywhere("display", display)

	ctrl, err := core.NewController(g.Workstation, core.ControllerConfig{
		Credential: g.UserCred, Registry: g.Registry,
	})
	if err != nil {
		log.Fatal(err)
	}
	req := core.Request{Subjobs: []core.SubjobSpec{
		{Label: "beamline", Contact: g.Contact("aps-beamline"), Count: 1,
			Executable: "instrument", Type: core.Required},
		{Label: "recon1", Contact: g.Contact("recon1"), Count: 4,
			Executable: "recon", Type: core.Interactive, StartupTimeout: time.Minute},
		{Label: "recon2", Contact: g.Contact("recon2"), Count: 4,
			Executable: "recon", Type: core.Interactive, StartupTimeout: time.Minute},
		{Label: "recon3", Contact: g.Contact("recon3"), Count: 4,
			Executable: "recon", Type: core.Interactive, StartupTimeout: time.Minute},
		{Label: "cave", Contact: g.Contact("cave-display"), Count: 1,
			Executable: "display", Type: core.Optional},
		{Label: "office", Contact: g.Contact("office-display"), Count: 1,
			Executable: "display", Type: core.Optional},
	}}

	err = g.Sim.Run("agent", func() {
		job, err := ctrl.Submit(req)
		if err != nil {
			log.Fatal(err)
		}
		// Service interactive failures by substitution; ignore optional ones.
		g.Sim.Go("fixer", func() {
			for {
				ev, ok := job.Events().Recv()
				if !ok {
					return
				}
				if ev.Kind == core.EvSubjobFailed {
					fmt.Printf("[agent] subjob %s (%s) failed: %s\n", ev.Label, ev.Type, ev.Reason)
					if ev.Type == core.Interactive {
						spec := req.Subjobs[2]
						spec.Label = "spare-recon"
						spec.Contact = g.Contact("spare-recon")
						if err := job.Substitute(ev.Label, spec); err != nil {
							fmt.Printf("[agent] substitute: %v\n", err)
						} else {
							fmt.Println("[agent] substituted spare-recon for", ev.Label)
						}
					}
				}
			}
		})
		cfg, err := job.Commit(0)
		if err != nil {
			log.Fatalf("commit: %v", err)
		}
		fmt.Printf("[agent] committed: %d subjobs, %d processes (displays pending: optional)\n",
			cfg.NSubjobs, cfg.WorldSize)
		job.Done().Wait()
		fmt.Printf("[agent] experiment finished at t=%v\n", g.Sim.Now())
		g.Sim.Sleep(2 * time.Second)
	})
	if err != nil {
		log.Fatal(err)
	}

	// The trace stream now holds the whole story. Render the co-allocation
	// and application phases as a timeline, print the headline counters,
	// and save the full Chrome trace for chrome://tracing / Perfetto.
	fmt.Println("\nco-allocation and application timeline (derived from trace):")
	spans := func(ev trace.Event) bool { return ev.Dur > 0 && (ev.Cat == "duroc" || ev.Cat == "app") }
	fmt.Print(trace.DeriveTimeline(g.Sim, g.Tracer.Events(), spans).Render(96))

	fmt.Println("\nheadline counters:")
	for _, cv := range g.Counters.Snapshot() {
		switch {
		case len(cv.Name) >= 6 && cv.Name[:6] == "duroc.",
			len(cv.Name) >= 5 && cv.Name[:5] == "gram.",
			len(cv.Name) >= 4 && cv.Name[:4] == "app.":
			fmt.Printf("  %-40s %d\n", cv.Name, cv.Value)
		}
	}

	const traceFile = "instrument-trace.json"
	f, err := os.Create(traceFile)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := g.Tracer.WriteChromeTrace(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull trace (%d events) written to %s — open in chrome://tracing\n",
		g.Tracer.Len(), traceFile)
}

// instrument is rank 0: it streams frames to the reconstruction workers,
// collects results, and serves display devices whenever they join.
func instrument(p *lrm.Proc) error {
	rt, err := core.Attach(p)
	if err != nil {
		return err
	}
	defer rt.Close()
	cfg, err := rt.Barrier(true, "", 0)
	if err != nil {
		return nil
	}
	workers := cfg.WorldSize - 1
	fmt.Printf("[instrument] online with %d reconstruction workers\n", workers)
	tr := p.Host().Network().Tracer()

	// Stream frames round-robin.
	conns := make([]*transport.Conn, workers)
	for i := 0; i < workers; i++ {
		conn, err := rt.DialRank(i + 1)
		if err != nil {
			return err
		}
		conns[i] = conn
		defer conn.Close()
	}
	streamStart := tr.Now()
	for seq := 0; seq < frames; seq++ {
		if err := p.Sleep(time.Second); err != nil { // beam exposure
			return err
		}
		if err := send(conns[seq%workers], msg{Type: "frame", Seq: seq}); err != nil {
			return err
		}
	}
	tr.Span("app", "stream", p.Host().Name(), "instrument", "", streamStart,
		trace.Arg{Key: "frames", Val: strconv.Itoa(frames)})
	for i := range conns {
		if err := send(conns[i], msg{Type: "frame", Seq: -1}); err != nil { // end of run
			return err
		}
	}

	// Collect reconstructions and serve displays until the run is done.
	collectStart := tr.Now()
	done := 0
	for done < frames {
		conn, ok := rt.Listener().Accept()
		if !ok {
			return fmt.Errorf("instrument listener closed")
		}
		m, err := recv(conn, time.Minute)
		if err != nil {
			conn.Close()
			continue
		}
		switch m.Type {
		case "recon":
			done++
			conn.Close()
		case "display-join":
			fmt.Printf("[instrument] display joined at t=%v: sending status (%d/%d frames)\n",
				p.Sim().Now(), done, frames)
			send(conn, msg{Type: "summary", Done: done, Total: frames})
			conn.Close()
		}
	}
	tr.Span("app", "collect", p.Host().Name(), "instrument", "", collectStart,
		trace.Arg{Key: "frames", Val: strconv.Itoa(done)})
	fmt.Printf("[instrument] run complete: %d frames reconstructed\n", done)
	return nil
}

// recon workers receive frames from the instrument, reconstruct, and
// report back.
func recon(p *lrm.Proc) error {
	rt, err := core.Attach(p)
	if err != nil {
		return err
	}
	defer rt.Close()
	if _, err := rt.Barrier(true, "", 0); err != nil {
		return nil
	}
	conn, ok := rt.Listener().Accept()
	if !ok {
		return fmt.Errorf("recon listener closed")
	}
	defer conn.Close()
	net := p.Host().Network()
	for {
		m, err := recv(conn, 5*time.Minute)
		if err != nil {
			return err
		}
		if m.Type != "frame" || m.Seq < 0 {
			return nil
		}
		reconStart := net.Tracer().Now()
		if err := p.Sleep(2 * time.Second); err != nil { // reconstruction
			return err
		}
		net.Tracer().Span("app", "reconstruct", p.Host().Name(), "recon", "", reconStart,
			trace.Arg{Key: "seq", Val: strconv.Itoa(m.Seq)})
		net.Counters().Add(trace.Key("app", "frames", "recon", p.Host().Name()), 1)
		back, err := rt.DialRank(0)
		if err != nil {
			return err
		}
		send(back, msg{Type: "recon", Seq: m.Seq})
		back.Close()
	}
}

// display devices are optional late joiners: MyRank is -1, but the
// committed address book still names the instrument.
func display(p *lrm.Proc) error {
	rt, err := core.Attach(p)
	if err != nil {
		return err
	}
	defer rt.Close()
	cfg, err := rt.Barrier(true, "", 0)
	if err != nil {
		return nil
	}
	if cfg.MyRank != -1 {
		fmt.Println("[display] unexpectedly part of the static world")
	}
	conn, err := rt.DialRank(0)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := send(conn, msg{Type: "display-join"}); err != nil {
		return err
	}
	m, err := recv(conn, time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("[display] showing reconstruction progress: %d/%d frames\n", m.Done, m.Total)
	return nil
}
