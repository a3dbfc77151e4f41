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
	"strings"
	"sync"
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

	mu   sync.Mutex
	jobs map[string]*lrm.Job
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
		jobs:    make(map[string]*lrm.Job),
	}
	l, err := machine.Host().Listen(ServiceName)
	if err != nil {
		return nil, err
	}
	rpc.Serve(s.sim, l, s, s.preamble)
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
		tr.SpanAtCtx(ctx.Child(trace.Seg(phase)), "gram", phase, s.host.Name(), actor, "", start, end)
	}
}

// HandleCall implements rpc.Handler.
func (s *Server) HandleCall(sc *rpc.ServerConn, method string, body json.RawMessage) (any, error) {
	switch method {
	case "submit":
		return s.handleSubmit(sc, body)
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
	case "queueinfo":
		return s.machine.QueueInfo(), nil
	case "estimatewait":
		var args struct {
			Count int `json:"count"`
		}
		if err := rpc.Decode(body, &args); err != nil {
			return nil, err
		}
		return struct {
			Wait time.Duration `json:"wait"`
		}{Wait: s.machine.EstimateWait(args.Count)}, nil
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

// HandleNotify implements rpc.Handler; GRAM has no inbound notifications.
func (s *Server) HandleNotify(sc *rpc.ServerConn, method string, body json.RawMessage) {}

func (s *Server) lookup(contact string) (*lrm.Job, error) {
	s.mu.Lock()
	job, ok := s.jobs[contact]
	s.mu.Unlock()
	if ok {
		return job, nil
	}
	// The contact embeds its LRM job id, so a gatekeeper restarted after
	// a host crash — empty contact table, but the machine's job state
	// intact — still resolves contacts its predecessor issued. Without
	// this, a committed-but-lost job on a rebooted machine could never be
	// cancelled again.
	if id, ok := strings.CutPrefix(contact, s.Contact().String()+"/"); ok {
		if job, err := s.machine.Job(id); err == nil {
			return job, nil
		}
	}
	return nil, ErrNoSuchJob
}

// handleSubmit runs the gatekeeper pipeline: misc parsing, initgroups,
// submission to the local manager. It runs after the preamble's
// authentication, in the per-connection loop.
func (s *Server) handleSubmit(sc *rpc.ServerConn, body json.RawMessage) (any, error) {
	user, _ := sc.Meta.(string)
	// Capture the serve context now: sc.Ctx is rebound per call, but the
	// watch daemon below outlives this one.
	ctx := sc.Ctx
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
	if _, err := nis.InitgroupsCtx(s.host, s.cfg.NISAddr, user, gsi.HandshakeTimeout, ctx.Child("nis")); err != nil {
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
	// counter) so it stays resolvable across gatekeeper restarts.
	contact := fmt.Sprintf("%s/%s", s.Contact(), job.ID())
	s.mu.Lock()
	s.jobs[contact] = job
	s.mu.Unlock()

	net := s.host.Network()
	net.Counters().Add(trace.Key("gram", "job", "submit", s.host.Name()), 1)

	// Push every state transition back to the submitter as a callback,
	// parented to the submit that created the job.
	jobCtx := ctx.Child("job")
	s.sim.GoDaemon("gram-watch:"+contact, func() {
		for {
			state, ok := job.Events().Recv()
			if !ok {
				return
			}
			reason := job.Reason()
			if tr := net.Tracer(); tr.Enabled() {
				tr.InstantCtx(jobCtx, "gram", "state:"+state.String(), s.host.Name(), contact, "",
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

// JobSpecFromNode converts a parsed conjunction into an lrm.JobSpec.
func JobSpecFromNode(node rsl.Node) (lrm.JobSpec, error) {
	spec := lrm.JobSpec{}
	exe, ok, err := rsl.GetString(node, "executable", nil)
	if err != nil || !ok {
		return spec, fmt.Errorf("%w: missing executable (%v)", ErrBadRSL, err)
	}
	spec.Executable = exe
	count, ok, err := rsl.GetInt(node, "count", nil)
	if err != nil || !ok {
		return spec, fmt.Errorf("%w: missing or bad count (%v)", ErrBadRSL, err)
	}
	spec.Count = count
	if minutes, ok, err := rsl.GetInt(node, "maxTime", nil); err != nil {
		return spec, fmt.Errorf("%w: bad maxTime (%v)", ErrBadRSL, err)
	} else if ok {
		spec.TimeLimit = time.Duration(minutes) * time.Minute
	}
	if resID, ok, err := rsl.GetString(node, "reservationID", nil); err != nil {
		return spec, fmt.Errorf("%w: bad reservationID (%v)", ErrBadRSL, err)
	} else if ok {
		spec.ReservationID = resID
	}
	if env, ok := rsl.Attributes(node)["environment"]; ok {
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
