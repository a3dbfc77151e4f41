package core

import "cogrid/internal/wire"

// The barrier's wire protocol: one "checkin" call per process, answered at
// the commit decision. It is the one message pair with a typed binary body
// (rpc picks that form for any type with AppendWire/ParseWire): the reply
// carries the whole address book to every rank, so on a 64-process
// co-allocation it is over nine tenths of all body bytes (DESIGN.md, "Wire
// format"). GRAB's broker speaks the same pair, which is what lets one
// application runtime serve both co-allocators. The json tags are the form
// a JSON-codec peer, or a foreign client, sees.

// CheckinArgs is one process's arrival at the co-allocation barrier.
type CheckinArgs struct {
	Job    string `json:"job"`
	Subjob string `json:"subjob"`
	Rank   int    `json:"rank"`
	OK     bool   `json:"ok"`
	Msg    string `json:"msg,omitempty"`
	Addr   string `json:"addr,omitempty"`
}

// CheckinReply is the commit decision as one process receives it.
type CheckinReply struct {
	Proceed bool   `json:"proceed"`
	Reason  string `json:"reason,omitempty"`
	Config  Config `json:"config"`

	// shared, on a reply built by Release.Reply, is the release's encoding
	// of Config's rank-independent fields.
	shared []byte
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// AppendWire appends the typed body: job, subjob, rank, ok, msg, addr.
func (a CheckinArgs) AppendWire(dst []byte) []byte {
	dst = wire.AppendString(dst, a.Job)
	dst = wire.AppendString(dst, a.Subjob)
	dst = wire.AppendVarint(dst, int64(a.Rank))
	dst = wire.AppendUvarint(dst, bit(a.OK))
	dst = wire.AppendString(dst, a.Msg)
	return wire.AppendString(dst, a.Addr)
}

// ParseWire decodes a body written by AppendWire.
func (a *CheckinArgs) ParseWire(src []byte) error {
	r := wire.NewReader(src)
	*a = CheckinArgs{
		Job:    r.String(),
		Subjob: r.String(),
		Rank:   r.Int(),
		OK:     r.Uvarint() != 0,
		Msg:    r.String(),
		Addr:   r.String(),
	}
	if err := r.Done(); err != nil {
		*a = CheckinArgs{}
		return err
	}
	return nil
}

// AppendWire appends the typed body: proceed, reason, the receiver's own
// MySubjob and MyRank, then the fields every rank of a release shares
// (appendShared). A reply that was itself parsed appends its lists as the
// bytes it kept.
func (p CheckinReply) AppendWire(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, bit(p.Proceed))
	dst = wire.AppendString(dst, p.Reason)
	dst = wire.AppendVarint(dst, int64(p.Config.MySubjob))
	dst = wire.AppendVarint(dst, int64(p.Config.MyRank))
	if p.shared != nil {
		return append(dst, p.shared...)
	}
	return appendShared(dst, &p.Config)
}

// appendShared appends Config's rank-independent fields: subjob count,
// sizes, labels, world size, address book.
func appendShared(dst []byte, cfg *Config) []byte {
	dst = wire.AppendVarint(dst, int64(cfg.NSubjobs))
	dst = wire.AppendUvarint(dst, uint64(len(cfg.SubjobSizes)))
	for _, n := range cfg.SubjobSizes {
		dst = wire.AppendVarint(dst, int64(n))
	}
	dst = cfg.labels.appendWire(dst)
	dst = wire.AppendVarint(dst, int64(cfg.WorldSize))
	return cfg.book.appendWire(dst)
}

// ParseWire decodes a body written by AppendWire, and validates all of it:
// every length prefix of the labels and of the address book is walked, so
// a truncated or over-long body fails here, before anything is used. The
// two lists themselves are not decoded. Config keeps them as sub-slices of
// src and decodes on demand, which is sound because src is a delivered
// message: the transport gives each one its own buffer (Conn.SendCtx copies
// the payload) and nothing writes to it afterwards. A caller that parses a
// buffer it goes on to reuse must hand in a copy. A proceed reply costs one
// allocation, the subjob sizes, however long its address book is.
func (p *CheckinReply) ParseWire(src []byte) error {
	r := wire.NewReader(src)
	*p = CheckinReply{Proceed: r.Uvarint() != 0, Reason: r.String()}
	cfg := &p.Config
	cfg.MySubjob = r.Int()
	cfg.MyRank = r.Int()
	cfg.NSubjobs = r.Int()
	if n := r.Len(); n > 0 {
		cfg.SubjobSizes = make([]int, n)
		for i := range cfg.SubjobSizes {
			cfg.SubjobSizes[i] = r.Int()
		}
	}
	cfg.labels.recv = r.StringList()
	cfg.WorldSize = r.Int()
	cfg.book.recv = r.StringList()
	if err := r.Done(); err != nil {
		*p = CheckinReply{}
		return err
	}
	return nil
}

// Release is one commit decision in the form every rank's reply shares:
// the committed configuration and the encoding of its rank-independent
// fields, built once. A commit answers WorldSize processes with a reply of
// O(WorldSize) bytes each; encoding the address book per reply would make
// the release quadratic in work as well as in bytes.
type Release struct {
	cfg    Config
	shared []byte // immutable
}

// NewRelease encodes cfg (whose MySubjob and MyRank are ignored) for
// release. cfg's slices must not change afterwards.
func NewRelease(cfg Config) *Release {
	return &Release{cfg: cfg, shared: appendShared(nil, &cfg)}
}

// Reply returns the proceed reply for the process at subjob index
// mySubjob and global rank myRank (-1 each for a late joiner).
func (r *Release) Reply(mySubjob, myRank int) CheckinReply {
	p := CheckinReply{Proceed: true, Config: r.cfg, shared: r.shared}
	p.Config.MySubjob, p.Config.MyRank = mySubjob, myRank
	return p
}
