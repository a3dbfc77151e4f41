package metrics

import (
	"io"
	"strconv"
	"strings"
	"time"
)

// Prometheus text exposition (version 0.0.4) for the repo's three metric
// families: monotonic counters, virtual-time gauges, and HDR histograms.
// The writer is deterministic — families sorted by name, scopes sorted
// within a family, float formatting via strconv 'g' — so a fixed-seed run
// produces byte-identical exposition text, which the determinism tests of
// cmd/benchgrid and internal/experiments lock in. This is the single exposition path shared by simulated runs
// today and (per ROADMAP) real-clock runs later.

// NamedValue is one counter sample handed to WritePrometheus. The metrics
// package cannot import trace (trace imports metrics), so trace declares its
// snapshot entry, trace.CounterValue, as this type.
type NamedValue struct {
	Name  string
	Value int64
}

// CounterFamily is a family of counters over verbs and members, as
// trace.Family keeps them: the counter of verb v and member m is named
// Heads[v], then '@' and Scopes[m] when that is not empty, and holds
// Values[m*len(Heads)+v]. No string holds a whole name. A Head has no '@',
// so a name splits in its scope or not at all.
type CounterFamily struct {
	Heads  []string
	Scopes []string
	Values []int64
}

// PromSnapshot bundles the registries for one exposition write. Any field
// may be zero/nil; the corresponding family is simply absent.
type PromSnapshot struct {
	// Prefix is prepended to every metric name; defaults to "cogrid_".
	Prefix string
	// Counters are monotonic counter samples in any order: a
	// trace.Counters.Snapshot, or the plain counters of
	// trace.Counters.Export.
	Counters []NamedValue
	// CounterFamilies are more counters, named in parts
	// (trace.Counters.Export). A name given more than once, in Counters or
	// in a family, is one counter: the exposition shows the sum.
	CounterFamilies []CounterFamily
	// Gauges are sampled at virtual time GaugeAt (normally Sim.Now() at
	// end of run).
	Gauges  *GaugeSet
	GaugeAt time.Duration
	// Hists are exposed as native Prometheus histograms with cumulative
	// le-buckets derived from the non-empty HDR buckets.
	Hists *HistogramSet
}

// promFlushAt bounds the bytes WritePrometheus buffers before it writes
// them: an exposition reaches its writer — often a bare *os.File — in
// pieces of about this size, not line by line.
const promFlushAt = 48 << 10

// promWriter is the exposition's append buffer and the writer behind it.
type promWriter struct {
	w   io.Writer
	buf []byte
	err error // the first write error; nothing is written after it
}

// endLine ends a line and writes the buffer out if it has grown full.
func (p *promWriter) endLine() {
	p.buf = append(p.buf, '\n')
	if len(p.buf) >= promFlushAt {
		p.flush()
	}
}

func (p *promWriter) flush() error {
	if p.err == nil && len(p.buf) > 0 {
		_, p.err = p.w.Write(p.buf)
	}
	p.buf = p.buf[:0]
	return p.err
}

func (p *promWriter) str(parts ...string) {
	for _, s := range parts {
		p.buf = append(p.buf, s...)
	}
}

func (p *promWriter) int(v int64) { p.buf = strconv.AppendInt(p.buf, v, 10) }

// sample starts a sample line: the metric name, its label set and the space
// before the value.
func (p *promWriter) sample(family, suffix, scope, le string) {
	p.str(family, suffix)
	p.labels(scope, le)
	p.buf = append(p.buf, ' ')
}

// labels writes the label set {scope="...",le="..."}, each label only if
// its value is non-empty, and nothing at all if both are empty.
func (p *promWriter) labels(scope, le string) {
	if scope == "" && le == "" {
		return
	}
	p.buf = append(p.buf, '{')
	if scope != "" {
		p.str(`scope="`)
		for i := 0; i < len(scope); i++ {
			switch b := scope[i]; b {
			case '\\', '"':
				p.buf = append(p.buf, '\\', b)
			case '\n':
				p.buf = append(p.buf, '\\', 'n')
			default:
				p.buf = append(p.buf, b)
			}
		}
		p.buf = append(p.buf, '"')
		if le != "" {
			p.buf = append(p.buf, ',')
		}
	}
	if le != "" {
		p.str(`le="`, le, `"`)
	}
	p.buf = append(p.buf, '}')
}

// WritePrometheus writes snap in Prometheus text format. Dotted metric
// names become underscore-separated; a trailing "@scope" suffix (the
// trace.Key convention) becomes a scope="..." label so per-host counters
// stay one family with bounded name cardinality. Counters are listed by
// family, by scope within a family, and — where two names share both, as
// a.b@s and a_b@s do — by name.
func WritePrometheus(w io.Writer, snap PromSnapshot) error {
	prefix := snap.Prefix
	if prefix == "" {
		prefix = "cogrid_"
	}
	p := promWriter{w: w, buf: make([]byte, 0, promFlushAt+4096)} // room for the line that crosses the mark
	p.counters(prefix, snap.Counters, snap.CounterFamilies)

	// Gauges, sampled at one fixed virtual instant.
	for _, name := range snap.Gauges.Names() {
		base, scope := splitScope(name)
		family := promName(prefix, base)
		p.str("# TYPE ", family, " gauge")
		p.endLine()
		p.sample(family, "", scope, "")
		p.buf = strconv.AppendFloat(p.buf, snap.Gauges.G(name).Value(snap.GaugeAt), 'g', -1, 64)
		p.endLine()
	}

	// Histograms: cumulative le-buckets over the non-empty HDR buckets,
	// using each bucket's inclusive upper bound as its le value.
	for _, name := range snap.Hists.Names() {
		h := snap.Hists.H(name)
		base, scope := splitScope(name)
		family := promName(prefix, base)
		p.str("# TYPE ", family, " histogram")
		p.endLine()
		var cum uint64
		var le [20]byte
		for _, b := range h.Buckets() {
			cum += b.Count
			p.sample(family, "_bucket", scope, string(strconv.AppendInt(le[:0], b.High, 10)))
			p.buf = strconv.AppendUint(p.buf, cum, 10)
			p.endLine()
		}
		p.sample(family, "_bucket", scope, "+Inf")
		p.int(h.Count())
		p.endLine()
		p.str(family, "_sum ")
		p.int(h.Sum())
		p.endLine()
		p.str(family, "_count ")
		p.int(h.Count())
		p.endLine()
	}
	return p.flush()
}

// splitScope separates a trace.Key-style name into its base and @scope.
func splitScope(name string) (base, scope string) {
	if i := strings.LastIndexByte(name, '@'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return name, ""
}

// promName sanitizes a dotted metric base name into [a-zA-Z0-9_:]+ behind
// prefix.
func promName(prefix, s string) string {
	var sb strings.Builder
	sb.Grow(len(prefix) + len(s))
	sb.WriteString(prefix)
	writePromName(&sb, s)
	return sb.String()
}

// writePromName writes s sanitized: each rune that may not appear in a
// Prometheus metric name becomes one '_'.
func writePromName(sb *strings.Builder, s string) {
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			sb.WriteByte(byte(r))
		default:
			sb.WriteByte('_')
		}
	}
}
