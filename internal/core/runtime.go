package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cogrid/internal/lrm"
	"cogrid/internal/rpc"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
)

// Runtime errors.
var (
	ErrNotCoallocated = errors.New("duroc: process was not started by a co-allocator")
	ErrBarrierAbort   = errors.New("duroc: co-allocation aborted at barrier")
	ErrBarrierTimeout = errors.New("duroc: barrier timed out")
)

// DefaultBarrierTimeout bounds how long a process waits in the barrier for
// the commit decision.
const DefaultBarrierTimeout = time.Hour

// Runtime is the application-side DUROC library: a process started on a
// co-allocated resource attaches, performs its non-side-effect-producing
// startup checks, and calls Barrier before any irreversible
// initialization, exactly as Section 4.1 prescribes.
type Runtime struct {
	proc     *lrm.Proc
	contact  transport.Addr
	jobID    string
	subjob   string
	ctx      trace.Ctx
	listener *transport.Listener
	addr     string // the listener's address, rendered once by Attach
	config   *Config
}

// Attach binds a process to its co-allocation using the environment the
// controller injected at submission. It also opens the process's
// application listener, whose address is published through the barrier's
// address book (Section 3.3's communication mechanism). On a traced network
// that environment holds the subjob's span context (EnvTrace), and the
// rank's barrier traffic is traced under a child of it; an untraced
// network's subjobs carry none, and their ranks derive none.
func Attach(p *lrm.Proc) (*Runtime, error) {
	contact := p.Getenv(EnvContact)
	jobID := p.Getenv(EnvJob)
	subjob := p.Getenv(EnvSubjob)
	if contact == "" || jobID == "" || subjob == "" {
		return nil, ErrNotCoallocated
	}
	addr, err := transport.ParseAddr(contact)
	if err != nil {
		return nil, fmt.Errorf("duroc: bad contact: %w", err)
	}
	rt := &Runtime{proc: p, contact: addr, jobID: jobID, subjob: subjob}
	// Rejoin the submitting request's causal tree when the controller
	// threaded its span context through the environment, as it does on a
	// traced network only; each rank gets its own child span so
	// per-process barrier traffic is distinguishable.
	if enc := p.Getenv(EnvTrace); enc != "" {
		if ctx := trace.ParseCtx(enc); ctx.Valid() {
			tr := p.Host().Network().Tracer()
			rt.ctx = tr.Child(ctx, "rank", tr.Itoa(p.Rank))
		}
	}
	host := p.Host().Name()
	rt.addr = appAddr(host, jobID, subjob, p.Rank)
	l, err := p.Host().Listen(rt.addr[len(host)+1:])
	if err != nil {
		return nil, fmt.Errorf("duroc: open application listener: %w", err)
	}
	rt.listener = l
	return rt, nil
}

// appAddr is a process's application listener address as the barrier's
// address book lists it, "<host>:app.<job>.<subjob>.<rank>", with the job
// ID's ':' and '/' made '_' so the service name after the first ':' is
// usable as one. Listener name and check-in address are that one string
// and its tail: one allocation for every co-allocated process, traced or
// not.
func appAddr(host, jobID, subjob string, rank int) string {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(rank), 10)
	var b strings.Builder
	b.Grow(len(host) + len(":app.") + len(jobID) + 1 + len(subjob) + 1 + len(digits))
	b.WriteString(host)
	b.WriteString(":app.")
	for i := 0; i < len(jobID); i++ {
		c := jobID[i]
		if c == ':' || c == '/' {
			c = '_'
		}
		b.WriteByte(c)
	}
	b.WriteByte('.')
	b.WriteString(subjob)
	b.WriteByte('.')
	b.Write(digits)
	return b.String()
}

// Proc returns the underlying process context.
func (rt *Runtime) Proc() *lrm.Proc { return rt.proc }

// JobID returns the co-allocation identifier.
func (rt *Runtime) JobID() string { return rt.jobID }

// Subjob returns this process's subjob label.
func (rt *Runtime) Subjob() string { return rt.subjob }

// Listener returns the process's application listener; its address is what
// peers find in the barrier's address book.
func (rt *Runtime) Listener() *transport.Listener { return rt.listener }

// Addr returns the application listener's address.
func (rt *Runtime) Addr() transport.Addr { return rt.listener.Addr() }

// Barrier reports startup success (ok) and blocks until the co-allocation
// commit decision. On proceed it returns the committed configuration; on
// abort it returns ErrBarrierAbort (the process must not have performed
// irreversible initialization). A zero timeout uses
// DefaultBarrierTimeout.
func (rt *Runtime) Barrier(ok bool, msg string, timeout time.Duration) (*Config, error) {
	if timeout == 0 {
		timeout = DefaultBarrierTimeout
	}
	conn, err := rt.proc.Host().DialCtx(rt.contact, rt.ctx)
	if err != nil {
		return nil, fmt.Errorf("duroc: dial barrier: %w", err)
	}
	client := rpc.NewClient(rt.proc.Sim(), conn)
	defer client.Close()
	var reply CheckinReply
	err = client.CallCtx(rt.ctx, "checkin", CheckinArgs{
		Job:    rt.jobID,
		Subjob: rt.subjob,
		Rank:   rt.proc.Rank,
		OK:     ok,
		Msg:    msg,
		Addr:   rt.addr,
	}, &reply, timeout)
	if err == rpc.ErrTimeout {
		return nil, ErrBarrierTimeout
	}
	if err != nil {
		return nil, fmt.Errorf("duroc: barrier: %w", err)
	}
	if !reply.Proceed {
		return nil, fmt.Errorf("%w: %s", ErrBarrierAbort, reply.Reason)
	}
	rt.config = &reply.Config
	return rt.config, nil
}

// Config returns the committed configuration after a successful Barrier.
func (rt *Runtime) Config() *Config { return rt.config }

// DialRank opens a connection to the process with the given global rank —
// the inter- and intra-subjob communication primitive of Section 3.3. It
// reads that one address out of the committed address book
// (Config.Address): the other WorldSize-1 are never decoded.
func (rt *Runtime) DialRank(rank int) (*transport.Conn, error) {
	if rt.config == nil {
		return nil, ErrNotCommitted
	}
	listed, ok := rt.config.Address(rank)
	if !ok {
		return nil, fmt.Errorf("duroc: rank %d out of range (world size %d)", rank, rt.config.WorldSize)
	}
	addr, err := transport.ParseAddr(listed)
	if err != nil {
		return nil, err
	}
	return rt.proc.Host().Dial(addr)
}

// Close releases the application listener.
func (rt *Runtime) Close() {
	if rt.listener != nil {
		rt.listener.Close()
	}
}
