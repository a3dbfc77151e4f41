// Package nis simulates the Network Information Service group database
// consulted by the Unix initgroups call.
//
// The paper's Figure 3 attributes the largest share of a GRAM request —
// 0.7 s — to initgroups, "expensive because it must consult remote group
// databases (via the Network Information Service)". We model NIS as a
// service with a configurable per-lookup service time, reached over the
// simulated network.
package nis

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"cogrid/internal/rpc"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// ServiceName is the transport service NIS listens on.
const ServiceName = "nis"

// DefaultServiceTime calibrates a lookup so that, with the default 2 ms
// network, initgroups costs Figure 3's 0.7 s.
const DefaultServiceTime = 696 * time.Millisecond

// ErrNoSuchUser is returned for lookups of unknown users.
var ErrNoSuchUser = errors.New("nis: no such user")

type lookupArgs struct {
	User string `json:"user"`
}

type lookupReply struct {
	Groups []string `json:"groups"`
}

// Server is a simulated NIS daemon.
type Server struct {
	sim         *vtime.Sim
	serviceTime time.Duration

	mu     sync.Mutex
	groups map[string][]string
}

// NewServer starts a NIS daemon on host with the given per-lookup service
// time (DefaultServiceTime if zero).
func NewServer(host *transport.Host, serviceTime time.Duration) (*Server, error) {
	if serviceTime == 0 {
		serviceTime = DefaultServiceTime
	}
	s := &Server{
		sim:         host.Network().Sim(),
		serviceTime: serviceTime,
		groups:      make(map[string][]string),
	}
	l, err := host.Listen(ServiceName)
	if err != nil {
		return nil, err
	}
	rpc.ServeTasks(s.sim, l, (*handler)(s))
	return s, nil
}

// AddUser registers a user's group list.
func (s *Server) AddUser(user string, groups ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groups[user] = append([]string(nil), groups...)
}

// handler is the daemon as an rpc.TaskHandler.
type handler Server

// ServeCall starts one lookup: its only wait is the service time, so the
// call becomes a record with a task armed for when that has passed.
func (h *handler) ServeCall(call *rpc.Call, method string, body json.RawMessage) {
	if method != "initgroups" {
		call.Reply(nil, fmt.Errorf("nis: unknown method %s", method))
		return
	}
	l := &lookup{server: (*Server)(h), call: call}
	if err := rpc.Decode(body, &l.args); err != nil {
		call.Reply(nil, err)
		return
	}
	l.done.Init(l.server.sim, l)
	l.done.At(l.server.sim.Now() + l.server.serviceTime)
}

func (h *handler) HandleNotify(sc *rpc.ServerConn, method string, body json.RawMessage) {}

// lookup is one initgroups call being served.
type lookup struct {
	server *Server
	call   *rpc.Call
	args   lookupArgs
	done   vtime.Task
}

// RunTask answers the lookup, its service time over.
func (l *lookup) RunTask() {
	s := l.server
	s.mu.Lock()
	groups, ok := s.groups[l.args.User]
	s.mu.Unlock()
	if !ok {
		l.call.Reply(nil, ErrNoSuchUser)
		return
	}
	l.call.Reply(lookupReply{Groups: groups}, nil)
}

// Initgroups performs a group lookup for user from the given host,
// blocking for the service time plus network round trips — the dominant
// term in a GRAM request's latency breakdown.
func Initgroups(from *transport.Host, server transport.Addr, user string, timeout time.Duration) ([]string, error) {
	return InitgroupsCtx(from, server, user, timeout, trace.Ctx{})
}

// InitgroupsCtx is Initgroups under a span context, so the lookup's
// network traffic stays attributed to the request that triggered it.
func InitgroupsCtx(from *transport.Host, server transport.Addr, user string, timeout time.Duration, ctx trace.Ctx) ([]string, error) {
	conn, err := from.DialCtx(server, ctx)
	if err != nil {
		return nil, fmt.Errorf("nis: dial: %w", err)
	}
	client := rpc.NewClient(from.Network().Sim(), conn)
	defer client.Close()
	var reply lookupReply
	if err := client.Call("initgroups", lookupArgs{User: user}, &reply, timeout); err != nil {
		return nil, err
	}
	return reply.Groups, nil
}
