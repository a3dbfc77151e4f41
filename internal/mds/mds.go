// Package mds simulates the Metacomputing Directory Service: the
// information component of the Globus resource management architecture.
//
// Resources publish records (machine size, scheduling mode, queue depth,
// and queue-wait forecasts) which co-allocation agents query to select
// candidate resources (Section 2.2). Records expire after a TTL: the
// staleness bound matching [14]'s observation that load information is
// only useful over a minimum validity period.
package mds

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"cogrid/internal/lrm"
	"cogrid/internal/rpc"
	"cogrid/internal/trace"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// ServiceName is the transport service the directory listens on.
const ServiceName = "mds"

// DefaultTTL is how long a record stays valid without refresh.
const DefaultTTL = 5 * time.Minute

// Record describes one published resource.
type Record struct {
	Name           string `json:"name"`
	Contact        string `json:"contact"` // GRAM contact
	Processors     int    `json:"processors"`
	Mode           string `json:"mode"`
	FreeProcessors int    `json:"free_processors"`
	RunningJobs    int    `json:"running_jobs"`
	QueuedJobs     int    `json:"queued_jobs"`
	// ForecastWait maps process counts to the machine's published
	// queue-wait forecasts.
	ForecastWait map[int]time.Duration `json:"forecast_wait,omitempty"`
	UpdatedAt    time.Duration         `json:"updated_at"`
}

// Filter selects records in a query.
type Filter struct {
	// MinProcessors excludes machines smaller than this.
	MinProcessors int `json:"min_processors,omitempty"`
	// MinFree excludes machines with fewer free processors.
	MinFree int `json:"min_free,omitempty"`
	// Mode, if non-empty, selects fork or batch machines only.
	Mode string `json:"mode,omitempty"`
	// MaxAge excludes records older than this (0 = server TTL).
	MaxAge time.Duration `json:"max_age,omitempty"`
}

// Meta is one control-plane key/value published through the directory —
// how a federation leader makes its shard map discoverable by replicas
// that were not up when it was broadcast (Section 2.2's information
// service carrying co-allocator state, not just resource records). Meta
// entries do not expire: a control-plane document stays authoritative
// until replaced by a newer version.
type Meta struct {
	Key       string        `json:"key"`
	Value     string        `json:"value"`
	UpdatedAt time.Duration `json:"updated_at"`
}

// Server is a directory service.
type Server struct {
	sim *vtime.Sim
	ttl time.Duration

	records map[string]Record
	meta    map[string]Meta
}

// NewServer starts a directory on host with the given record TTL
// (DefaultTTL if zero).
func NewServer(host *transport.Host, ttl time.Duration) (*Server, error) {
	if ttl == 0 {
		ttl = DefaultTTL
	}
	s := &Server{
		sim:     host.Network().Sim(),
		ttl:     ttl,
		records: make(map[string]Record),
		meta:    make(map[string]Meta),
	}
	l, err := host.Listen(ServiceName)
	if err != nil {
		return nil, err
	}
	rpc.Serve(s.sim, l, (*handler)(s), nil)
	return s, nil
}

// handler is the directory as an rpc.Handler: no method waits for
// anything, so every call is answered in the step that reads it.
type handler Server

func (h *handler) ServeCall(call *rpc.Call, method string, body json.RawMessage) {
	call.Reply((*Server)(h).handleCall(method, body))
}

func (s *Server) handleCall(method string, body json.RawMessage) (any, error) {
	switch method {
	case "register":
		var rec Record
		if err := rpc.Decode(body, &rec); err != nil {
			return nil, err
		}
		if rec.Name == "" {
			return nil, fmt.Errorf("mds: record without name")
		}
		rec.UpdatedAt = s.sim.Now()
		s.records[rec.Name] = rec
		return nil, nil
	case "query":
		var f Filter
		if err := rpc.Decode(body, &f); err != nil {
			return nil, err
		}
		return recordList(s.query(f)), nil
	case "putmeta":
		var m Meta
		if err := rpc.Decode(body, &m); err != nil {
			return nil, err
		}
		if m.Key == "" {
			return nil, fmt.Errorf("mds: meta without key")
		}
		m.UpdatedAt = s.sim.Now()
		s.meta[m.Key] = m
		return nil, nil
	case "getmeta":
		var args struct {
			Key string `json:"key"`
		}
		if err := rpc.Decode(body, &args); err != nil {
			return nil, err
		}
		m, ok := s.meta[args.Key]
		if !ok {
			return nil, fmt.Errorf("mds: no meta %q", args.Key)
		}
		return m, nil
	}
	return nil, fmt.Errorf("mds: unknown method %s", method)
}

func (s *Server) query(f Filter) []Record {
	maxAge := f.MaxAge
	if maxAge == 0 {
		maxAge = s.ttl
	}
	now := s.sim.Now()
	var out []Record
	for _, rec := range s.records {
		if now-rec.UpdatedAt > maxAge {
			continue
		}
		if rec.Processors < f.MinProcessors {
			continue
		}
		if rec.FreeProcessors < f.MinFree {
			continue
		}
		if f.Mode != "" && rec.Mode != f.Mode {
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Client queries and updates a directory.
type Client struct {
	rpcc *rpc.Client
}

// Dial connects to a directory service.
func Dial(from *transport.Host, dir transport.Addr) (*Client, error) {
	return DialCtx(from, dir, trace.Ctx{})
}

// DialCtx is Dial under a causal span context: the connection and every
// call on it parent beneath ctx in the request tree.
func DialCtx(from *transport.Host, dir transport.Addr, ctx trace.Ctx) (*Client, error) {
	conn, err := from.DialCtx(dir, ctx)
	if err != nil {
		return nil, fmt.Errorf("mds: dial: %w", err)
	}
	return &Client{rpcc: rpc.NewClient(from.Network().Sim(), conn)}, nil
}

// CallTimeout bounds directory calls.
const CallTimeout = time.Minute

// Register publishes or refreshes a record.
func (c *Client) Register(rec Record) error {
	return c.rpcc.Call("register", rec, nil, CallTimeout)
}

// Query returns records matching the filter.
func (c *Client) Query(f Filter) ([]Record, error) {
	var out recordList
	err := c.rpcc.Call("query", f, &out, CallTimeout)
	return out, err
}

// PutMeta publishes a control-plane key/value document.
func (c *Client) PutMeta(key, value string) error {
	return c.rpcc.Call("putmeta", Meta{Key: key, Value: value}, nil, CallTimeout)
}

// GetMeta fetches a control-plane document; errors when absent.
func (c *Client) GetMeta(key string) (Meta, error) {
	var m Meta
	err := c.rpcc.Call("getmeta", struct {
		Key string `json:"key"`
	}{Key: key}, &m, CallTimeout)
	return m, err
}

// Close releases the connection.
func (c *Client) Close() { c.rpcc.Close() }

// RecordFor builds a directory record from a machine's current state,
// forecasting waits for the given process counts.
func RecordFor(m *lrm.Machine, contact transport.Addr, forecastCounts ...int) Record {
	return recordFor(m, contact.String(), forecastCounts)
}

// recordFor is RecordFor with the contact already rendered.
func recordFor(m *lrm.Machine, contact string, forecastCounts []int) Record {
	info := m.QueueInfo()
	rec := Record{
		Name:           m.Name(),
		Contact:        contact,
		Processors:     info.Processors,
		Mode:           m.Mode().String(),
		FreeProcessors: info.FreeProcessors,
		RunningJobs:    info.RunningJobs,
		QueuedJobs:     info.QueuedJobs,
	}
	if len(forecastCounts) > 0 {
		rec.ForecastWait = make(map[int]time.Duration, len(forecastCounts))
		for _, n := range forecastCounts {
			rec.ForecastWait[n] = m.EstimateWait(n)
		}
	}
	return rec
}

// Publish runs a daemon that republishes a machine's record every
// interval until the returned stop function is called. The publishing
// host dials the directory each round, as a GRAM reporter would.
func Publish(m *lrm.Machine, dir transport.Addr, contact transport.Addr, interval time.Duration, forecastCounts ...int) (stop func()) {
	sim := m.Host().Network().Sim()
	stopped := vtime.NewEvent(sim, "mds-publish-stop:"+m.Name())
	// The publisher is a daemon, not part of any client request: it roots
	// its own causal tree, with every round's traffic under one child span
	// (rounds are sequential, so their intervals merge cleanly).
	ctx := m.Host().Network().Tracer().Child(trace.NewRequest("mds-publish@"+m.Name()), "round")
	// The contact is the same every round: render it once.
	rendered := contact.String()
	sim.GoDaemon("mds-publish:"+m.Name(), func() {
		for {
			client, err := DialCtx(m.Host(), dir, ctx)
			if err == nil {
				client.Register(recordFor(m, rendered, forecastCounts))
				client.Close()
			}
			if stopped.WaitTimeout(interval) {
				return
			}
		}
	})
	return stopped.Set
}
