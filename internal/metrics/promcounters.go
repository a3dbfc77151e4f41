package metrics

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"
)

// The exposition's counter section. A counter is listed under its family —
// its name up to the last '@', sanitized — with its scope label — the text
// after that '@' — in order of family, then label, then name; a name given
// more than once is one counter, its values summed. The plain counters are
// sorted here. A CounterFamily's members are sorted once, in an order that
// holds under every verb, so each verb's counters are a run already in
// order; the section merges the runs. Every name is compared through its
// sanitized family, which is computed once per counter, never per
// comparison.

// promRow is one counter as the exposition orders it: its family is fam1
// then fam2, sanitized and without the prefix; scope is its label; its
// name is head, or head, '@' and tail when tail is not empty.
type promRow struct {
	fam1, fam2 string
	scope      string
	head, tail string
	value      int64
}

// order compares a and b in exposition order and reports whether their
// families are one.
func (a *promRow) order(b *promRow) (c int, sameFamily bool) {
	if a.fam1 == b.fam1 {
		c = strings.Compare(a.fam2, b.fam2)
	} else {
		c = compareParts([3]string{a.fam1, a.fam2}, [3]string{b.fam1, b.fam2})
	}
	if c != 0 {
		return c, false
	}
	if c := strings.Compare(a.scope, b.scope); c != 0 {
		return c, true
	}
	if a.head == b.head {
		return strings.Compare(a.tail, b.tail), true
	}
	x, y := [3]string{a.head}, [3]string{b.head}
	if a.tail != "" {
		x[1], x[2] = "@", a.tail
	}
	if b.tail != "" {
		y[1], y[2] = "@", b.tail
	}
	return compareParts(x, y), true
}

// compareParts compares the strings a's parts and b's parts make.
func compareParts(a, b [3]string) int {
	i, j, x, y := 0, 0, a[0], b[0]
	for {
		for x == "" && i < 2 {
			i++
			x = a[i]
		}
		for y == "" && j < 2 {
			j++
			y = b[j]
		}
		if x == "" || y == "" {
			return cmp.Compare(len(x), len(y))
		}
		n := min(len(x), len(y))
		if c := strings.Compare(x[:n], y[:n]); c != 0 {
			return c
		}
		x, y = x[n:], y[n:]
	}
}

// counters writes the counter section: the least of the runs' next
// counters, again and again, taking from one run for as long as its next
// is no greater than every other run's.
func (p *promWriter) counters(prefix string, plain []NamedValue, fams []CounterFamily) {
	var runs []counterRun
	if len(plain) > 0 {
		runs = append(runs, counterRun{plain: sortPlain(plain), n: len(plain)})
	}
	for i := range fams {
		if o := orderFamily(&fams[i]); o != nil {
			for v := range o.heads {
				runs = append(runs, counterRun{fam: o, verb: v, n: len(o.keys)})
			}
		}
	}
	for i := range runs {
		runs[i].load()
	}
	var last promRow // the counter being summed
	started := false
	for {
		m, r := -1, -1 // the run with the least next counter, and the next least
		for i := range runs {
			switch {
			case runs[i].i == runs[i].n:
			case m < 0 || runs[i].compare(&runs[m]) < 0:
				m, r = i, m
			case r < 0 || runs[i].compare(&runs[r]) < 0:
				r = i
			}
		}
		if m < 0 {
			break
		}
		for run := &runs[m]; ; {
			row := &run.row
			d, sameFamily := 1, false
			if started {
				d, sameFamily = row.order(&last)
			}
			switch {
			case d < 0:
				panic("metrics: counters out of exposition order")
			case d == 0:
				last.value += row.value
			default:
				if started {
					p.counter(prefix, &last)
				}
				if !sameFamily {
					p.str("# TYPE ", prefix, row.fam1, row.fam2, " counter")
					p.endLine()
				}
				last, started = *row, true
			}
			if !run.next() || r >= 0 && run.compare(&runs[r]) > 0 {
				break
			}
		}
	}
	if started {
		p.counter(prefix, &last)
	}
}

// counter writes one counter's sample line.
func (p *promWriter) counter(prefix string, r *promRow) {
	p.str(prefix, r.fam1, r.fam2)
	p.labels(r.scope, "")
	p.buf = append(p.buf, ' ')
	p.int(r.value)
	p.endLine()
}

// counterRun is a run being merged — the sorted plain counters, or one
// verb of a family — and its next counter.
type counterRun struct {
	plain []plainRow
	fam   *famOrder
	verb  int
	i, n  int
	row   promRow
}

func (r *counterRun) load() {
	if r.fam != nil {
		r.row = r.fam.row(r.verb, r.i)
		return
	}
	c := &r.plain[r.i]
	r.row = promRow{fam1: c.fam, scope: c.scope, head: c.Name, value: c.Value}
}

// next moves to the run's next counter and reports whether there is one.
func (r *counterRun) next() bool {
	if r.i++; r.i == r.n {
		return false
	}
	r.load()
	return true
}

func (r *counterRun) compare(o *counterRun) int {
	c, _ := r.row.order(&o.row)
	return c
}

// plainRow is a counter of PromSnapshot.Counters, its name split at the
// last '@' into its sanitized family and its label.
type plainRow struct {
	NamedValue
	fam, scope string
}

// sortPlain returns the plain counters in exposition order. Their
// sanitized families are cut from one string.
func sortPlain(plain []NamedValue) []plainRow {
	rows := make([]plainRow, len(plain))
	size := 0
	for i, cv := range plain {
		base, scope := splitScope(cv.Name)
		rows[i] = plainRow{cv, base, scope}
		size += utf8.RuneCountInString(base) // a rune sanitizes to one byte
	}
	var all strings.Builder
	all.Grow(size)
	for i := range rows {
		at := all.Len()
		writePromName(&all, rows[i].fam)
		rows[i].fam = all.String()[at:]
	}
	slices.SortFunc(rows, func(a, b plainRow) int {
		if c := strings.Compare(a.fam, b.fam); c != 0 {
			return c
		}
		if c := strings.Compare(a.scope, b.scope); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return rows
}

// famOrder is a CounterFamily with its members sorted once for every verb.
// Under verb v, a member whose scope has an '@' is in the family heads[v]
// then its key's tail — '_' and the sanitized text before the scope's last
// '@' — with the text after it as its label; one whose scope has none is in
// the family heads[v] alone, the scope its label, and sorts before all of
// those. So ordering the members by tail, then label, then scope orders
// each verb's counters, whatever the verb.
type famOrder struct {
	f     *CounterFamily
	keys  []memberKey // the members, sorted
	heads []string    // each verb's Head, sanitized
}

// memberKey is member m of the family, its scope's last '@' (-1 for none)
// and its tail.
type memberKey struct {
	m, at int32
	tail  string
}

// orderFamily sorts f's members, or returns nil when f has no counters.
// The sanitized heads and tails are cut from one string.
func orderFamily(f *CounterFamily) *famOrder {
	nv := len(f.Heads)
	if nv == 0 || len(f.Scopes) == 0 {
		return nil
	}
	if len(f.Values) != len(f.Scopes)*nv {
		panic(fmt.Sprintf("metrics: a counter family of %d verbs and %d members has %d values", nv, len(f.Scopes), len(f.Values)))
	}
	o := &famOrder{f: f, keys: make([]memberKey, len(f.Scopes)), heads: make([]string, nv)}
	size := 0
	for _, h := range f.Heads {
		if strings.Contains(h, "@") {
			panic(fmt.Sprintf("metrics: counter family head %q has an '@'", h))
		}
		size += utf8.RuneCountInString(h)
	}
	for m, s := range f.Scopes {
		at := strings.LastIndexByte(s, '@')
		o.keys[m] = memberKey{m: int32(m), at: int32(at)}
		if at >= 0 {
			size += 1 + utf8.RuneCountInString(s[:at])
		}
	}
	var all strings.Builder
	all.Grow(size)
	for v, h := range f.Heads {
		at := all.Len()
		writePromName(&all, h)
		o.heads[v] = all.String()[at:]
	}
	for i := range o.keys {
		if k := &o.keys[i]; k.at >= 0 {
			at := all.Len()
			all.WriteByte('_')
			writePromName(&all, f.Scopes[k.m][:k.at])
			k.tail = all.String()[at:]
		}
	}
	slices.SortFunc(o.keys, func(a, b memberKey) int {
		if c := strings.Compare(a.tail, b.tail); c != 0 {
			return c
		}
		s, t := f.Scopes[a.m], f.Scopes[b.m]
		if c := strings.Compare(s[a.at+1:], t[b.at+1:]); c != 0 {
			return c
		}
		return strings.Compare(s, t)
	})
	return o
}

// row is verb v's counter of the i-th member in order.
func (o *famOrder) row(v, i int) promRow {
	k := o.keys[i]
	s := o.f.Scopes[k.m]
	return promRow{fam1: o.heads[v], fam2: k.tail, scope: s[k.at+1:], head: o.f.Heads[v], tail: s,
		value: o.f.Values[int(k.m)*len(o.f.Heads)+v]}
}
