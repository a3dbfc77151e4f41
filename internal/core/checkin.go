package core

import (
	"encoding/binary"

	"cogrid/internal/wire"
)

// The barrier's wire protocol: one "checkin" call per process, answered at
// the commit decision. It is the one message pair with a typed binary body
// (rpc picks that form for any type with AppendWire, or a reply type with
// AppendWireShared, and ParseWire): the reply carries the whole address book
// to every rank, so on a 64-process co-allocation it is over nine tenths of
// all body bytes (DESIGN.md, "Wire format"). The controller's barrier service is the one server of the pair,
// and every proceed reply it sends comes from one release, below, whose
// encoding every rank's frame shares (AppendWireShared). The json tags are
// the form a JSON-codec peer, or a foreign client, sees.

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

	// shared, on a reply built by release.reply, is the release's encoding
	// of Config's rank-independent fields.
	shared *wire.Shared
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
	dst = binary.AppendUvarint(dst, bit(a.OK))
	dst = wire.AppendString(dst, a.Msg)
	return wire.AppendString(dst, a.Addr)
}

// ParseWire decodes a body written by AppendWire, received as head
// followed by shared (see wire.NewReader). Its strings are views of them,
// as every decoded string is (see transport.Conn.Send).
func (a *CheckinArgs) ParseWire(head, shared []byte) error {
	r := wire.NewReader(head, shared)
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

// AppendWireShared appends the typed body: proceed, reason, the receiver's
// own MySubjob and MyRank, then the fields every rank of a release shares
// (appendShared). A reply built by release.reply stops before those and
// returns them, encoded and checksummed once per release: rpc sends them
// beside each rank's frame, uncopied. Any other reply is appended whole,
// and sh is nil; one that was itself parsed appends its lists as the bytes
// it kept.
func (p CheckinReply) AppendWireShared(dst []byte) (_ []byte, sh *wire.Shared) {
	dst = binary.AppendUvarint(dst, bit(p.Proceed))
	dst = wire.AppendString(dst, p.Reason)
	dst = wire.AppendVarint(dst, int64(p.Config.MySubjob))
	dst = wire.AppendVarint(dst, int64(p.Config.MyRank))
	if p.shared != nil {
		return dst, p.shared
	}
	return appendShared(dst, &p.Config), nil
}

// appendShared appends Config's rank-independent fields: subjob count,
// sizes, labels, world size, address book.
func appendShared(dst []byte, cfg *Config) []byte {
	dst = wire.AppendVarint(dst, int64(cfg.NSubjobs))
	dst = binary.AppendUvarint(dst, uint64(len(cfg.SubjobSizes)))
	for _, n := range cfg.SubjobSizes {
		dst = wire.AppendVarint(dst, int64(n))
	}
	dst = cfg.labels.appendWire(dst)
	dst = wire.AppendVarint(dst, int64(cfg.WorldSize))
	return cfg.book.appendWire(dst)
}

// ParseWire decodes a body written by AppendWireShared, received as head
// followed by shared (see wire.NewReader): from a release, the per-rank
// fields are in head and the rest in shared. It validates all of
// it: every length prefix of the labels and of the address book is walked,
// so a truncated or over-long body fails here, before anything is used. The
// two lists themselves are not decoded. Config keeps them as sub-slices of
// the part they arrived in, the release's shared part when there is one, and
// decodes on demand, which is sound because that is a delivered message (see
// transport.Conn.Send). A proceed reply costs one allocation, the subjob
// sizes, however long its address book is.
func (p *CheckinReply) ParseWire(head, shared []byte) error {
	r := wire.NewReader(head, shared)
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

// release is one commit decision in the form every rank's reply shares:
// the committed configuration and the encoding of its rank-independent
// fields, built and checksummed once. A commit answers WorldSize processes,
// each with a reply of O(WorldSize) bytes; every one of them goes out as a
// frame of its own per-rank fields beside this one encoding, so the release
// is linear in work and in bytes allocated.
type release struct {
	cfg    Config
	shared wire.Shared
}

// newRelease encodes cfg (whose MySubjob and MyRank are ignored) for
// release. cfg's slices must not change afterwards.
func newRelease(cfg Config) *release {
	return &release{cfg: cfg, shared: wire.NewShared(appendShared(nil, &cfg))}
}

// reply returns the proceed reply for the process at subjob index
// mySubjob and global rank myRank (-1 each for a late joiner).
func (r *release) reply(mySubjob, myRank int) CheckinReply {
	p := CheckinReply{Proceed: true, Config: r.cfg, shared: &r.shared}
	p.Config.MySubjob, p.Config.MyRank = mySubjob, myRank
	return p
}
