package trace

import (
	"cmp"
	"hash/maphash"
	"slices"
	"strings"
	"time"
	"unsafe"
)

// The tracer's event store holds no pointers the collector has to follow.
// Every string an event carries — Cat, Name, Proc, Thr, ID, Req, Span and
// each argument key and value — is held once in a string table and named
// by a uint32 id. A stored event is a fixed record of its two times and
// those ids, kept in fixed-size chunks; its args are id pairs in chunks of
// their own. Chunks of records and of arg pairs contain no pointers, so
// the collector allocates them as no-scan spans and never marks through
// them; only the table's strings are scanned, one header per distinct
// string. Reading an event back resolves its ids to the table's strings.

// record is one stored event. Its args are the nargs pairs of the store
// from index argOff on.
type record struct {
	at, dur                             int64
	cat, name, proc, thr, id, req, span uint32
	argOff, nargs                       uint32
}

// argRef is one stored argument: the ids of its key and its value.
type argRef struct{ key, val uint32 }

// Chunk capacities: records (chunkSize, 112 KiB a chunk), argument pairs
// (64 KiB) and table strings (64 KiB of string headers and 4 KiB of escape
// flags). A chunk is one allocation, so they are large: the store of a
// 160 000-event trace with 100 000 distinct strings is about 130 of them.
const (
	chunkShift   = 11
	chunkSize    = 1 << chunkShift
	argShift     = 13
	argChunkSize = 1 << argShift
	strShift     = 12
	strChunkSize = 1 << strShift
	strBlockSize = 16 << 10
)

// store is the tracer's events in emission order. A copy of it is a
// snapshot that stays valid while the store keeps growing: chunks are only
// ever written past what the copy reads.
type store struct {
	recs  []*[chunkSize]record
	n     int
	args  []*[argChunkSize]argRef
	nargs int
	strs  strtab
}

// add records ev with args as its arguments.
func (s *store) add(ev *Event, args []Arg) {
	r := record{
		at: int64(ev.At), dur: int64(ev.Dur),
		cat: s.strs.intern(ev.Cat), name: s.strs.intern(ev.Name),
		proc: s.strs.intern(ev.Proc), thr: s.strs.intern(ev.Thr),
		id: s.strs.intern(ev.ID), req: s.strs.intern(ev.Req), span: s.strs.intern(ev.Span),
		argOff: uint32(s.nargs), nargs: uint32(len(args)),
	}
	for _, a := range args {
		k := s.nargs & (argChunkSize - 1)
		if k == 0 {
			s.args = append(s.args, new([argChunkSize]argRef))
		}
		s.args[len(s.args)-1][k] = argRef{s.strs.intern(a.Key), s.strs.intern(a.Val)}
		s.nargs++
	}
	// What the emitter goes on to keep of the event (a flight recorder's
	// ring) shares the table's strings rather than holding a second copy,
	// or a view of a received frame.
	ev.Cat, ev.Name, ev.Proc, ev.Thr = s.strs.str(r.cat), s.strs.str(r.name), s.strs.str(r.proc), s.strs.str(r.thr)
	ev.ID, ev.Req, ev.Span = s.strs.str(r.id), s.strs.str(r.req), s.strs.str(r.span)
	k := s.n & (chunkSize - 1)
	if k == 0 {
		s.recs = append(s.recs, new([chunkSize]record))
	}
	s.recs[len(s.recs)-1][k] = r
	s.n++
}

func (s *store) rec(i uint32) *record { return &s.recs[i>>chunkShift][i&(chunkSize-1)] }

func (s *store) arg(i uint32) argRef { return s.args[i>>argShift][i&(argChunkSize-1)] }

// event resolves r into an Event whose Args are written to args, which
// must have length r.nargs; no args leave Args nil.
func (s *store) event(r *record, args []Arg) Event {
	ev := Event{
		At: time.Duration(r.at), Dur: time.Duration(r.dur),
		Cat: s.strs.str(r.cat), Name: s.strs.str(r.name), Proc: s.strs.str(r.proc), Thr: s.strs.str(r.thr),
		ID: s.strs.str(r.id), Req: s.strs.str(r.req), Span: s.strs.str(r.span),
	}
	if r.nargs > 0 {
		for k := range args {
			a := s.arg(r.argOff + uint32(k))
			args[k] = Arg{Key: s.strs.str(a.key), Val: s.strs.str(a.val)}
		}
		ev.Args = args
	}
	return ev
}

// appendJSONL is appendJSONLEvent on a stored event, encoded from its ids.
func (s *store) appendJSONL(buf []byte, r *record) []byte {
	return appendJSONL(buf, r.at, r.dur, &[7]uint32{r.cat, r.name, r.proc, r.thr, r.id, r.req, r.span},
		int(r.nargs), func(k int) (uint32, uint32) {
			a := s.arg(r.argOff + uint32(k))
			return a.key, a.val
		}, s.strs.str, s.strs.appendJSON)
}

// sortKey is a stored event's place in the export sort: its time, which
// decides most comparisons without reaching the record, and its index.
type sortKey struct {
	at int64
	i  uint32
}

// order returns the stored events' keys in export order. Events that
// compare equal are equal in every field, so the sort need not be stable.
func (s *store) order() []sortKey {
	keys := make([]sortKey, s.n)
	for i := range keys {
		keys[i] = sortKey{s.rec(uint32(i)).at, uint32(i)}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.at != b.at {
			return cmp.Compare(a.at, b.at)
		}
		return s.compare(a.i, b.i)
	})
	return keys
}

// compare is compare(a, b *Event) on the stored events i and j. Equal ids
// are equal strings, so only differing ones are resolved and compared.
func (s *store) compare(i, j uint32) int {
	a, b := s.rec(i), s.rec(j)
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := s.compareStr(a.proc, b.proc); c != 0 {
		return c
	}
	if c := s.compareStr(a.thr, b.thr); c != 0 {
		return c
	}
	if c := s.compareStr(a.cat, b.cat); c != 0 {
		return c
	}
	if c := s.compareStr(a.name, b.name); c != 0 {
		return c
	}
	if c := s.compareStr(a.id, b.id); c != 0 {
		return c
	}
	if c := s.compareStr(a.req, b.req); c != 0 {
		return c
	}
	if c := s.compareStr(a.span, b.span); c != 0 {
		return c
	}
	if c := cmp.Compare(a.dur, b.dur); c != 0 {
		return c
	}
	for k := uint32(0); k < a.nargs && k < b.nargs; k++ {
		x, y := s.arg(a.argOff+k), s.arg(b.argOff+k)
		if c := s.compareStr(x.key, y.key); c != 0 {
			return c
		}
		if c := s.compareStr(x.val, y.val); c != 0 {
			return c
		}
	}
	return cmp.Compare(a.nargs, b.nargs)
}

func (s *store) compareStr(a, b uint32) int {
	if a == b {
		return 0
	}
	return strings.Compare(s.strs.str(a), s.strs.str(b))
}

// strtab holds each distinct string once and names it by a uint32 id, ids
// counting up in the order strings are first seen; id 0 is "". Beside each
// string it keeps whether JSON needs it escaped, decided once when the
// string enters.
//
// A lookup first tries front, a small cache indexed by where the string's
// bytes are, not by what they are: an emitter passes the same string value
// — a literal, a host's name, a context's span path — for many events, and
// finding it there costs no hashing. Only what front misses is hashed, once,
// into index: open addressing over slots that hold a string's hash in
// their upper half and its id in the lower, zero marking an empty slot.
// The index holds no pointers; front holds the strings it caches.
type strtab struct {
	chunks  []*strChunk
	n       uint32 // ids in use, "" included
	index   []uint64
	seed    maphash.Seed
	front   *[frontSize]frontEntry
	block   []byte // where keep cuts its copies
	scratch []byte // where build assembles its parts
}

type strChunk struct {
	s   [strChunkSize]string
	esc [strChunkSize]bool // s needs escaping in a JSON string
}

type frontEntry struct {
	s  string
	id uint32
}

const (
	frontShift = 10
	frontSize  = 1 << frontShift
	indexMin   = 1 << 10
)

// intern returns s's id, adding s to the table if it is new.
func (t *strtab) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if t.front == nil {
		t.init()
	}
	f := t.frontOf(s)
	if f.s == s {
		return f.id
	}
	id := t.lookup(s)
	f.s, f.id = s, id
	return id
}

// frontOf is s's entry in the front cache. Fibonacci hashing of the
// address spreads the allocator's aligned addresses over the cache.
func (t *strtab) frontOf(s string) *frontEntry {
	p := uint64(uintptr(unsafe.Pointer(unsafe.StringData(s))))
	return &t.front[(p*0x9E3779B97F4A7C15)>>(64-frontShift)]
}

// build returns the table's copy of prefix, sep and parts concatenated,
// assembled in scratch, so that only a string the table has not seen is
// copied, once. The front cache learns the copy's address, which the
// caller's events will intern it by.
func (t *strtab) build(prefix, sep string, parts []string) string {
	b := append(append(t.scratch[:0], prefix...), sep...)
	for _, p := range parts {
		b = append(b, p...)
	}
	t.scratch = b
	return t.internBuilt(b)
}

// internBuilt is build's last step, for bytes assembled in scratch.
func (t *strtab) internBuilt(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if t.front == nil {
		t.init()
	}
	id := t.lookup(unsafe.String(&b[0], len(b)))
	s := t.str(id)
	f := t.frontOf(s)
	f.s, f.id = s, id
	return s
}

func (t *strtab) init() {
	t.front = new([frontSize]frontEntry)
	t.index = make([]uint64, indexMin)
	t.seed = maphash.MakeSeed()
	t.chunks = []*strChunk{new(strChunk)}
	t.n = 1 // ""
}

// lookup finds s in the index, adding a copy of it if it is not there: s
// may be a view of a received frame (internal/wire), which the table, kept
// for the whole run, must not keep alive. front keeps s itself, since it
// is bounded.
func (t *strtab) lookup(s string) uint32 {
	h := uint32(maphash.String(t.seed, s))
	mask := uint32(len(t.index) - 1)
	i := h & mask
	for ; t.index[i] != 0; i = (i + 1) & mask {
		if e := t.index[i]; uint32(e>>32) == h && t.str(uint32(e)) == s {
			return uint32(e)
		}
	}
	id := t.n
	if id&(strChunkSize-1) == 0 {
		t.chunks = append(t.chunks, new(strChunk))
	}
	c, k := t.chunks[id>>strShift], id&(strChunkSize-1)
	c.s[k], c.esc[k] = t.keep(s), needsEscape(s)
	t.n++
	t.index[i] = uint64(h)<<32 | uint64(id)
	if 2*t.n > uint32(len(t.index)) {
		t.grow()
	}
	return id
}

// keep returns a copy of s, which is not empty, that the table owns, cut
// from a block of at least strBlockSize bytes: one allocation per block
// rather than per string. Nothing writes to a byte once handed out.
func (t *strtab) keep(s string) string {
	if len(s) > cap(t.block)-len(t.block) {
		t.block = make([]byte, 0, max(strBlockSize, len(s)))
	}
	t.block = append(t.block, s...)
	return unsafe.String(&t.block[len(t.block)-len(s)], len(s))
}

// grow doubles the index, placing each entry by the hash it holds.
func (t *strtab) grow() {
	index := make([]uint64, 2*len(t.index))
	mask := uint32(len(index) - 1)
	for _, e := range t.index {
		if e == 0 {
			continue
		}
		i := uint32(e>>32) & mask
		for index[i] != 0 {
			i = (i + 1) & mask
		}
		index[i] = e
	}
	t.index = index
}

// str resolves an id; id 0 is "" even before the table has a chunk.
func (t *strtab) str(id uint32) string {
	if id == 0 {
		return ""
	}
	return t.chunks[id>>strShift].s[id&(strChunkSize-1)]
}

// appendJSON appends the string id names as a JSON string literal: one
// copy when it needs no escaping, as most do.
func (t *strtab) appendJSON(buf []byte, id uint32) []byte {
	if id == 0 {
		return append(buf, '"', '"')
	}
	c, k := t.chunks[id>>strShift], id&(strChunkSize-1)
	if c.esc[k] {
		return appendJSONString(buf, c.s[k])
	}
	buf = append(buf, '"')
	buf = append(buf, c.s[k]...)
	return append(buf, '"')
}
