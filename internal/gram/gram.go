// Package gram implements the Globus Resource Allocation Manager: the
// per-resource service through which all jobs are submitted.
//
// A request follows the pipeline the paper's Figure 3 breaks down: the
// gatekeeper authenticates the client (GSI, 0.5 s), resolves the local
// user's groups (initgroups via NIS, 0.7 s), parses the RSL and performs
// miscellaneous request handling (0.01 s), and creates processes through
// the local resource manager (fork, 0.001 s). The submit reply carries a
// job contact; subsequent job state transitions are pushed to the
// submitting client as callbacks over the same connection.
package gram

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cogrid/internal/gsi"
	"cogrid/internal/lrm"
	"cogrid/internal/nis"
	"cogrid/internal/rpc"
	"cogrid/internal/rsl"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// ServiceName is the transport service the gatekeeper listens on.
const ServiceName = "gram"

// Errors returned by GRAM operations.
var (
	ErrBadRSL    = errors.New("gram: invalid RSL")
	ErrNoSuchJob = errors.New("gram: no such job contact")
)

// miscCost is the gatekeeper's overhead besides authentication and
// initgroups (owned by the gsi and nis packages): request parsing and
// bookkeeping, Figure 3's 0.01 s.
const miscCost = 10 * time.Millisecond

// StateEvent is a job state callback.
type StateEvent struct {
	Contact string        `json:"contact"`
	State   lrm.JobState  `json:"state"`
	Reason  string        `json:"reason,omitempty"`
	At      time.Duration `json:"at"`
}

type submitArgs struct {
	RSL string `json:"rsl"`
}

type submitReply struct {
	JobContact string `json:"job_contact"`
}

type contactArgs struct {
	JobContact string `json:"job_contact"`
}

type signalArgs struct {
	JobContact string `json:"job_contact"`
	Signal     string `json:"signal"`
}

type statusReply struct {
	State  lrm.JobState `json:"state"`
	Reason string       `json:"reason,omitempty"`
}

// ServerConfig configures a gatekeeper.
type ServerConfig struct {
	Credential gsi.Credential
	Registry   *gsi.Registry
	AuthCost   gsi.CostModel // zero value replaced by gsi.DefaultCost
	NISAddr    transport.Addr
}

// Server is a gatekeeper bound to one machine.
type Server struct {
	sim     *vtime.Sim
	host    *transport.Host
	machine *lrm.Machine
	cfg     ServerConfig
}

// StartServer starts a gatekeeper for machine.
func StartServer(machine *lrm.Machine, cfg ServerConfig) (*Server, error) {
	if cfg.AuthCost == (gsi.CostModel{}) {
		cfg.AuthCost = gsi.DefaultCost
	}
	s := &Server{
		sim:     machine.Host().Network().Sim(),
		host:    machine.Host(),
		machine: machine,
		cfg:     cfg,
	}
	l, err := machine.Host().Listen(ServiceName)
	if err != nil {
		return nil, err
	}
	rpc.Serve(s.sim, l, (*gatekeeper)(s), s.preamble)
	return s, nil
}

// Contact returns the gatekeeper's address.
func (s *Server) Contact() transport.Addr {
	return transport.Addr{Host: s.host.Name(), Service: ServiceName}
}

// preamble is the GSI server handshake; the authenticated identity becomes
// the connection's Meta.
func (s *Server) preamble(conn *transport.Conn) (any, error) {
	start := s.sim.Now()
	peer, err := gsi.ServerHandshake(s.sim, conn, s.cfg.Credential, s.cfg.Registry, s.cfg.AuthCost)
	s.record(conn.Ctx(), "gram", "authentication", start, s.sim.Now())
	if err != nil {
		return nil, err
	}
	return peer, nil
}

// record puts one phase of a request in the trace, as a span under ctx: the
// Figure 3 breakdown and the gatekeeper rows of the Figure 5 timeline are
// projections of these (trace.IsPhase knows them by name).
func (s *Server) record(ctx trace.Ctx, actor, phase string, start, end time.Duration) {
	if tr := s.host.Network().Tracer(); tr.Enabled() {
		tr.SpanAtCtx(tr.Child(ctx, trace.Seg(phase)), "gram", phase, s.host.Name(), actor, "", start, end)
	}
}

// gatekeeper is the Server as an rpc.Handler.
type gatekeeper Server

// ServeCall answers every method in the connection's step but submit, which
// waits in mid-call — the misc sleep, the NIS initgroups call, the LRM
// submit — and so runs in a process of its own that replies when it is done.
func (g *gatekeeper) ServeCall(call *rpc.Call, method string, body json.RawMessage) {
	s := (*Server)(g)
	if method == "submit" {
		s.sim.GoDaemon("gram-submit", func() { call.Reply(s.submit(call, body)) })
		return
	}
	call.Reply(s.answer(method, body))
}

// answer serves a method that needs no wait: a question about, or an order
// to, the machine or one of its jobs.
func (s *Server) answer(method string, body json.RawMessage) (any, error) {
	switch method {
	case "cancel":
		var args contactArgs
		if err := rpc.Decode(body, &args); err != nil {
			return nil, err
		}
		job, err := s.lookup(args.JobContact)
		if err != nil {
			return nil, err
		}
		job.Cancel()
		return nil, nil
	case "status":
		var args contactArgs
		if err := rpc.Decode(body, &args); err != nil {
			return nil, err
		}
		job, err := s.lookup(args.JobContact)
		if err != nil {
			return nil, err
		}
		return statusReply{State: job.State(), Reason: job.Reason()}, nil
	case "signal":
		var args signalArgs
		if err := rpc.Decode(body, &args); err != nil {
			return nil, err
		}
		job, err := s.lookup(args.JobContact)
		if err != nil {
			return nil, err
		}
		switch args.Signal {
		case "suspend":
			return nil, job.Suspend()
		case "resume":
			return nil, job.Resume()
		}
		return nil, fmt.Errorf("gram: unknown signal %q", args.Signal)
	case "reserve":
		var args reserveArgs
		if err := rpc.Decode(body, &args); err != nil {
			return nil, err
		}
		res, err := s.machine.Reserve(args.Count, args.Start, args.Duration)
		if err != nil {
			return nil, err
		}
		return reserveReply{ID: res.ID, Start: res.Start, End: res.End, Count: res.Count}, nil
	case "cancelreservation":
		var args struct {
			ID string `json:"id"`
		}
		if err := rpc.Decode(body, &args); err != nil {
			return nil, err
		}
		s.machine.CancelReservation(args.ID)
		return nil, nil
	case "earliestslot":
		var args slotArgs
		if err := rpc.Decode(body, &args); err != nil {
			return nil, err
		}
		start, err := s.machine.EarliestSlot(args.Count, args.Duration, args.NotBefore)
		if err != nil {
			return nil, err
		}
		return struct {
			Start time.Duration `json:"start"`
		}{Start: start}, nil
	}
	return nil, fmt.Errorf("gram: unknown method %s", method)
}

// Reservation wire types (the GARA-style extension of Section 5).
type reserveArgs struct {
	Count    int           `json:"count"`
	Start    time.Duration `json:"start"`
	Duration time.Duration `json:"duration"`
}

type reserveReply struct {
	ID    string        `json:"id"`
	Start time.Duration `json:"start"`
	End   time.Duration `json:"end"`
	Count int           `json:"count"`
}

type slotArgs struct {
	Count     int           `json:"count"`
	Duration  time.Duration `json:"duration"`
	NotBefore time.Duration `json:"not_before"`
}

// lookup resolves a job contact this gatekeeper issued. A contact is the
// gatekeeper's address and the LRM job id (see submit), so the machine's
// job table is the only one: a gatekeeper restarted after a host crash
// still resolves the contacts its predecessor issued, and a committed-but-
// lost job on a rebooted machine can still be cancelled.
func (s *Server) lookup(contact string) (*lrm.Job, error) {
	rest, ours := strings.CutPrefix(contact, s.host.Name())
	if id, ok := strings.CutPrefix(rest, ":"+ServiceName+"/"); ours && ok {
		if job, err := s.machine.Job(id); err == nil {
			return job, nil
		}
	}
	return nil, ErrNoSuchJob
}

// submit runs the gatekeeper pipeline after the preamble's authentication:
// misc parsing, initgroups, submission to the local manager. It waits in
// mid-call, so it runs in a process spawned for the call (see ServeCall).
func (s *Server) submit(call *rpc.Call, body json.RawMessage) (any, error) {
	sc := call.Conn()
	user, _ := sc.Meta.(string)
	ctx := call.Ctx
	net := s.host.Network()
	var args submitArgs
	if err := rpc.Decode(body, &args); err != nil {
		return nil, err
	}

	// Misc: parse and validate the request.
	miscStart := s.sim.Now()
	spec, err := ParseJobRSL(args.RSL)
	s.sim.Sleep(miscCost)
	s.record(ctx, "gram", "misc", miscStart, s.sim.Now())
	if err != nil {
		return nil, err
	}

	// initgroups: resolve the authenticated user's groups via NIS.
	igStart := s.sim.Now()
	if _, err := nis.InitgroupsCtx(s.host, s.cfg.NISAddr, user, gsi.HandshakeTimeout, net.Tracer().Child(ctx, "nis")); err != nil {
		return nil, fmt.Errorf("gram: initgroups for %s: %w", user, err)
	}
	s.record(ctx, "gram", "initgroups", igStart, s.sim.Now())

	// Create processes through the local resource manager.
	forkStart := s.sim.Now()
	job, err := s.machine.Submit(spec)
	s.record(ctx, "gram", "fork", forkStart, s.sim.Now())
	if err != nil {
		return nil, err
	}

	// The contact is derived from the LRM job id (not a per-server
	// counter) so it stays resolvable across gatekeeper restarts: it is the
	// gatekeeper's address, a slash and the id, which lookup takes apart.
	contact := s.host.Name() + ":" + ServiceName + "/" + job.ID()

	net.Counters().AddKey("gram", "job", "submit", s.host.Name(), 1)

	// Push every state transition back to the submitter as a callback,
	// parented to the submit that created the job.
	jobCtx := net.Tracer().Child(ctx, "job")
	s.sim.GoDaemon("gram-watch:"+contact, func() {
		for {
			state, ok := job.Events().Recv()
			if !ok {
				return
			}
			reason := job.Reason()
			if tr := net.Tracer(); tr.Enabled() {
				tr.InstantCtx(jobCtx, "gram", stateEvents[state], s.host.Name(), contact, "",
					trace.Arg{Key: "reason", Val: reason})
			}
			net.Counters().AddKey("gram", "state", state.String(), s.host.Name(), 1)
			sc.NotifyCtx(jobCtx, "job-state", StateEvent{
				Contact: contact,
				State:   state,
				Reason:  reason,
				At:      s.sim.Now(),
			})
		}
	})
	return submitReply{JobContact: contact}, nil
}

// stateEvents names a job's transitions in the trace, indexed by state.
var stateEvents = [...]string{"state:PENDING", "state:ACTIVE", "state:DONE", "state:FAILED", "state:CANCELLED", "state:SUSPENDED"}

// ParseJobRSL converts a single-subjob RSL conjunction into an lrm.JobSpec.
// Recognized attributes: executable (required), count (required),
// maxTime (minutes, optional), environment (optional sequence of
// alternating names and values), plus the DUROC attributes handled by the
// co-allocator (ignored here).
func ParseJobRSL(src string) (lrm.JobSpec, error) {
	node, err := rsl.Parse(src)
	if err != nil {
		return lrm.JobSpec{}, fmt.Errorf("%w: %v", ErrBadRSL, err)
	}
	return JobSpecFromNode(node)
}

// JobSpecFromNode converts a parsed conjunction into an lrm.JobSpec. It
// flattens the conjunction once and reads every attribute from that map.
func JobSpecFromNode(node rsl.Node) (lrm.JobSpec, error) {
	spec := lrm.JobSpec{}
	attrs := rsl.Attributes(node)
	exe, ok, err := attrString(attrs, "executable")
	if err != nil || !ok {
		return spec, fmt.Errorf("%w: missing executable (%v)", ErrBadRSL, err)
	}
	spec.Executable = exe
	count, ok, err := attrInt(attrs, "count", "count")
	if err != nil || !ok {
		return spec, fmt.Errorf("%w: missing or bad count (%v)", ErrBadRSL, err)
	}
	spec.Count = count
	if minutes, ok, err := attrInt(attrs, "maxtime", "maxTime"); err != nil {
		return spec, fmt.Errorf("%w: bad maxTime (%v)", ErrBadRSL, err)
	} else if ok {
		spec.TimeLimit = time.Duration(minutes) * time.Minute
	}
	if resID, ok, err := attrString(attrs, "reservationid"); err != nil {
		return spec, fmt.Errorf("%w: bad reservationID (%v)", ErrBadRSL, err)
	} else if ok {
		spec.ReservationID = resID
	}
	if env, ok := attrs["environment"]; ok {
		seq, isSeq := env.(rsl.Seq)
		if !isSeq || len(seq)%2 != 0 {
			return spec, fmt.Errorf("%w: environment must be a sequence of name value pairs", ErrBadRSL)
		}
		spec.Env = make(map[string]string, len(seq)/2)
		for i := 0; i < len(seq); i += 2 {
			k, err := rsl.Eval(seq[i], nil)
			if err != nil {
				return spec, fmt.Errorf("%w: %v", ErrBadRSL, err)
			}
			v, err := rsl.Eval(seq[i+1], nil)
			if err != nil {
				return spec, fmt.Errorf("%w: %v", ErrBadRSL, err)
			}
			spec.Env[k] = v
		}
	}
	return spec, nil
}

// attrString is rsl.GetString over a flattened conjunction: key is the
// attribute's lowercased name.
func attrString(attrs map[string]rsl.Value, key string) (s string, ok bool, err error) {
	v, present := attrs[key]
	if !present {
		return "", false, nil
	}
	s, err = rsl.Eval(v, nil)
	return s, true, err
}

// attrInt is rsl.GetInt over a flattened conjunction; name is the
// attribute as its errors spell it.
func attrInt(attrs map[string]rsl.Value, key, name string) (i int, ok bool, err error) {
	s, ok, err := attrString(attrs, key)
	if !ok || err != nil {
		return 0, ok, err
	}
	i, err = strconv.Atoi(s)
	if err != nil {
		return 0, true, fmt.Errorf("rsl: attribute %s: %w", name, err)
	}
	return i, true, nil
}
