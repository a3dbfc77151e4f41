// Package mpig is a grid-enabled message passing library in the style of
// MPICH-G (reference [11]): co-allocation is hidden inside the library, so
// an application simply calls Init and finds itself in a fully formed
// multi-machine MPI world.
//
// Init attaches to the DUROC runtime, enters the co-allocation barrier,
// and derives the world — rank, size, and peer addresses — from the
// committed configuration of Section 3.3. Point-to-point messages flow
// over lazily established connections; collectives (Barrier, Bcast,
// AllReduce) use binomial trees.
package mpig

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/lrm"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// Errors returned by communication operations.
var (
	ErrLateJoiner = errors.New("mpig: process is not part of the committed world")
	ErrBadRank    = errors.New("mpig: rank out of range")
	ErrBadTag     = errors.New("mpig: user tags must be non-negative")
	ErrTimeout    = errors.New("mpig: operation timed out")
	ErrFinalized  = errors.New("mpig: communicator finalized")
)

// System tags used by collectives.
const (
	tagBarrierUp   = -1
	tagBarrierDown = -2
	tagBcast       = -3
	tagReduce      = -4
)

// DefaultOpTimeout bounds each blocking receive inside operations, so a
// dead peer surfaces as an error rather than a hang.
const DefaultOpTimeout = 10 * time.Minute

// frame is the wire format of one message.
type frame struct {
	From int    `json:"from"`
	Tag  int    `json:"tag"`
	Data []byte `json:"data,omitempty"`
}

type msgKey struct {
	from, tag int
}

// Comm is a communicator over the committed co-allocation world.
type Comm struct {
	sim    *vtime.Sim
	rt     *core.Runtime
	proc   *lrm.Proc
	rank   int
	size   int
	config core.Config

	// OpTimeout bounds blocking receives; DefaultOpTimeout if unset.
	OpTimeout time.Duration

	conns     map[int]*transport.Conn
	queues    map[msgKey]*vtime.Chan[[]byte]
	finalized bool
}

// Init performs startup: attach to the co-allocator, report successful
// startup, pass the barrier, and build the communicator from the
// committed configuration. Processes of late-joining optional subjobs
// cannot form part of a static MPI world and get ErrLateJoiner.
func Init(p *lrm.Proc) (*Comm, error) {
	rt, err := core.Attach(p)
	if err != nil {
		return nil, err
	}
	cfg, err := rt.Barrier(true, "", 0)
	if err != nil {
		rt.Close()
		return nil, err
	}
	if cfg.MyRank < 0 {
		rt.Close()
		return nil, ErrLateJoiner
	}
	c := &Comm{
		sim:    p.Sim(),
		rt:     rt,
		proc:   p,
		rank:   cfg.MyRank,
		size:   cfg.WorldSize,
		config: *cfg,
		conns:  make(map[int]*transport.Conn),
		queues: make(map[msgKey]*vtime.Chan[[]byte]),
	}
	c.sim.GoDaemon(fmt.Sprintf("mpig-accept:%s/%d", rt.JobID(), c.rank), c.acceptLoop)
	return c, nil
}

// Rank returns this process's rank in the world.
func (c *Comm) Rank() int { return c.rank }

// Proc returns the underlying process context.
func (c *Comm) Proc() *lrm.Proc { return c.proc }

// Size returns the world size.
func (c *Comm) Size() int { return c.size }

// Config returns the committed co-allocation configuration.
func (c *Comm) Config() core.Config { return c.config }

// Subjob returns this process's subjob index — the locality information
// grid-aware applications use to cluster communication.
func (c *Comm) Subjob() int { return c.config.MySubjob }

func (c *Comm) opTimeout() time.Duration {
	if c.OpTimeout > 0 {
		return c.OpTimeout
	}
	return DefaultOpTimeout
}

// acceptLoop receives peer connections and spawns a reader per connection.
func (c *Comm) acceptLoop() {
	for {
		conn, ok := c.rt.Listener().Accept()
		if !ok {
			return
		}
		c.sim.GoDaemon(fmt.Sprintf("mpig-read:%d<-%s", c.rank, conn.RemoteAddr()), func() {
			c.readLoop(conn)
		})
	}
}

func (c *Comm) readLoop(conn *transport.Conn) {
	for {
		raw, err := conn.Recv()
		if err != nil {
			return
		}
		var f frame
		if json.Unmarshal(raw, &f) != nil {
			continue
		}
		c.queue(f.From, f.Tag).TrySend(f.Data)
	}
}

// queue returns (creating on demand) the receive queue for (from, tag).
func (c *Comm) queue(from, tag int) *vtime.Chan[[]byte] {
	key := msgKey{from: from, tag: tag}
	q, ok := c.queues[key]
	if !ok {
		q = vtime.NewChan[[]byte](c.sim, fmt.Sprintf("mpig-q:%d<-%d/%d", c.rank, from, tag), 256)
		c.queues[key] = q
	}
	return q
}

// connTo returns (dialing on demand) the connection to a peer rank.
func (c *Comm) connTo(rank int) (*transport.Conn, error) {
	if c.finalized {
		return nil, ErrFinalized
	}
	if conn, ok := c.conns[rank]; ok {
		return conn, nil
	}
	conn, err := c.rt.DialRank(rank)
	if err != nil {
		return nil, err
	}
	if existing, ok := c.conns[rank]; ok {
		conn.Close()
		return existing, nil
	}
	c.conns[rank] = conn
	return conn, nil
}

// Send delivers data to a peer with a non-negative tag. It returns once
// the message is queued for transmission (eager, buffered semantics).
func (c *Comm) Send(to, tag int, data []byte) error {
	if tag < 0 {
		return ErrBadTag
	}
	return c.send(to, tag, data)
}

func (c *Comm) send(to, tag int, data []byte) error {
	if to < 0 || to >= c.size {
		return ErrBadRank
	}
	if to == c.rank {
		// Self-send: deliver locally without the network.
		c.queue(c.rank, tag).TrySend(data)
		return nil
	}
	conn, err := c.connTo(to)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(frame{From: c.rank, Tag: tag, Data: data})
	if err != nil {
		return err
	}
	return conn.Send(raw)
}

// Recv blocks until a message with the given source and non-negative tag
// arrives, bounded by the communicator's operation timeout.
func (c *Comm) Recv(from, tag int) ([]byte, error) {
	if tag < 0 {
		return nil, ErrBadTag
	}
	return c.recv(from, tag)
}

func (c *Comm) recv(from, tag int) ([]byte, error) {
	if from < 0 || from >= c.size {
		return nil, ErrBadRank
	}
	data, res := c.queue(from, tag).RecvTimeout(c.opTimeout())
	switch res {
	case vtime.RecvOK:
		return data, nil
	case vtime.RecvClosed:
		return nil, ErrFinalized
	default:
		return nil, fmt.Errorf("%w: receive from %d tag %d", ErrTimeout, from, tag)
	}
}

// Barrier blocks until every rank has entered it: ranks reduce to 0 and
// wait for its broadcast release.
func (c *Comm) Barrier() error {
	if _, err := c.reduce(0, tagBarrierUp, nil, nil); err != nil {
		return err
	}
	_, err := c.bcast(0, tagBarrierDown, nil)
	return err
}

// Bcast distributes root's data to every rank via a binomial tree and
// returns the received value (on root, data itself).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if root < 0 || root >= c.size {
		return nil, ErrBadRank
	}
	return c.bcast(root, tagBcast, data)
}

func (c *Comm) bcast(root, tag int, data []byte) ([]byte, error) {
	relative := (c.rank - root + c.size) % c.size
	mask := 1
	for mask < c.size {
		if relative&mask != 0 {
			src := (relative - mask + root) % c.size
			got, err := c.recv(src, sysTag(tag, mask))
			if err != nil {
				return nil, err
			}
			data = got
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if relative+mask < c.size {
			dst := (relative + mask + root) % c.size
			if err := c.send(dst, sysTag(tag, mask), data); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	return data, nil
}

// ReduceFunc combines two byte payloads.
type ReduceFunc func(a, b []byte) []byte

// Reduce combines every rank's data at root via a binomial tree. Non-root
// ranks receive nil. A nil op keeps the first argument (used by Barrier).
func (c *Comm) Reduce(root int, data []byte, op ReduceFunc) ([]byte, error) {
	if root < 0 || root >= c.size {
		return nil, ErrBadRank
	}
	return c.reduce(root, tagReduce, data, op)
}

func (c *Comm) reduce(root, tag int, data []byte, op ReduceFunc) ([]byte, error) {
	relative := (c.rank - root + c.size) % c.size
	mask := 1
	for mask < c.size {
		if relative&mask == 0 {
			srcRel := relative | mask
			if srcRel < c.size {
				src := (srcRel + root) % c.size
				got, err := c.recv(src, sysTag(tag, mask))
				if err != nil {
					return nil, err
				}
				if op != nil {
					data = op(data, got)
				}
			}
		} else {
			dst := (relative - mask + root) % c.size
			if err := c.send(dst, sysTag(tag, mask), data); err != nil {
				return nil, err
			}
			return nil, nil
		}
		mask <<= 1
	}
	return data, nil
}

// sysTag disambiguates tree rounds: two collective phases on the same
// system tag could otherwise interleave between rounds. System tags are
// negative; rounds are encoded in steps of 16.
func sysTag(tag, mask int) int {
	round := 0
	for m := mask; m > 1; m >>= 1 {
		round++
	}
	return tag - 16*(round+1)
}

// AllReduceInt combines an int64 across all ranks with op and returns the
// result everywhere (reduce to 0, then broadcast).
func (c *Comm) AllReduceInt(v int64, op func(a, b int64) int64) (int64, error) {
	enc := func(x int64) []byte {
		b, _ := json.Marshal(x)
		return b
	}
	dec := func(b []byte) int64 {
		var x int64
		json.Unmarshal(b, &x)
		return x
	}
	reduced, err := c.Reduce(0, enc(v), func(a, b []byte) []byte {
		return enc(op(dec(a), dec(b)))
	})
	if err != nil {
		return 0, err
	}
	out, err := c.Bcast(0, reduced)
	if err != nil {
		return 0, err
	}
	return dec(out), nil
}

// Reserved high user-range tags for the linear collectives.
const (
	gatherTag   = 0x7fff0000
	scatterTag  = 0x7fff0001
	sendRecvTag = 0x7fff0002
)

// Gather collects every rank's data at root, indexed by rank; non-root
// ranks receive nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	if root < 0 || root >= c.size {
		return nil, ErrBadRank
	}
	if c.rank != root {
		return nil, c.send(root, gatherTag, data)
	}
	out := make([][]byte, c.size)
	out[root] = data
	for r := 0; r < c.size; r++ {
		if r == root {
			continue
		}
		got, err := c.recv(r, gatherTag)
		if err != nil {
			return nil, err
		}
		out[r] = got
	}
	return out, nil
}

// Scatter distributes parts[r] from root to each rank r and returns the
// receiving rank's part. Only root's parts argument is consulted; it must
// have exactly Size entries.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	if root < 0 || root >= c.size {
		return nil, ErrBadRank
	}
	if c.rank != root {
		return c.recv(root, scatterTag)
	}
	if len(parts) != c.size {
		return nil, fmt.Errorf("mpig: Scatter needs %d parts, got %d", c.size, len(parts))
	}
	for r := 0; r < c.size; r++ {
		if r == root {
			continue
		}
		if err := c.send(r, scatterTag, parts[r]); err != nil {
			return nil, err
		}
	}
	return parts[root], nil
}

// AllGather collects every rank's data everywhere: a Gather to rank 0
// followed by a broadcast of the assembled vector.
func (c *Comm) AllGather(data []byte) ([][]byte, error) {
	gathered, err := c.Gather(0, data)
	if err != nil {
		return nil, err
	}
	var packed []byte
	if c.rank == 0 {
		packed, err = json.Marshal(gathered)
		if err != nil {
			return nil, err
		}
	}
	packed, err = c.Bcast(0, packed)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	if err := json.Unmarshal(packed, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// SendRecv exchanges messages with a partner in one call, safe against the
// head-to-head deadlock of two blocking sends.
func (c *Comm) SendRecv(partner int, data []byte) ([]byte, error) {
	if partner < 0 || partner >= c.size {
		return nil, ErrBadRank
	}
	if partner == c.rank {
		return data, nil
	}
	if err := c.send(partner, sendRecvTag, data); err != nil {
		return nil, err
	}
	return c.recv(partner, sendRecvTag)
}

// Finalize tears down the communicator: connections close and pending
// receives fail.
func (c *Comm) Finalize() {
	if c.finalized {
		return
	}
	c.finalized = true
	conns := make([]*transport.Conn, 0, len(c.conns))
	for _, conn := range c.conns {
		conns = append(conns, conn)
	}
	for _, conn := range conns {
		conn.Close()
	}
	c.rt.Close()
}
