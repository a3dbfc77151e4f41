package trace

import (
	"fmt"
	"slices"
	"strings"

	"cogrid/internal/metrics"
)

// Counter is a handle to one named counter. Callers on hot paths should
// obtain the handle once with Counters.C and keep it: Add is a single
// addition. A nil *Counter is a valid no-op.
type Counter struct {
	v int64
}

// Add increments the counter. Nil-safe.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v += delta
	}
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Counters is a registry of named monotonic counters. Names follow the
// layer.object.verb convention with an optional @scope suffix naming the
// host, service, or connection the count belongs to — see Key. A lookup is
// a map read, so cached handles make counting one addition on the hot path.
// Like every simulated structure it is guarded by the run token alone (see
// package vtime). A nil *Counters is a valid no-op registry.
//
// Counters come in two kinds. A plain counter is registered under its name
// (C, Add, AddKey). A counter that exists once per connection end — tens of
// thousands a run, read only when the run is exported — belongs to a Family
// and has no name until Snapshot renders one; Export hands it over without one.
type Counters struct {
	m map[string]*Counter
	// byKey indexes the same handles by the parts of their Key name, for
	// AddKey.
	byKey    map[keyParts]*Counter
	families []*Family
}

type keyParts struct{ layer, object, verb, scope string }

// NewCounters creates an empty registry.
func NewCounters() *Counters {
	return &Counters{m: make(map[string]*Counter), byKey: make(map[keyParts]*Counter)}
}

// Key builds a counter name: layer.object.verb, plus "@scope" when scope is
// non-empty. Example: Key("transport", "msgs", "send", "m1") is
// "transport.msgs.send@m1".
func Key(layer, object, verb, scope string) string {
	k := layer + "." + object + "." + verb
	if scope != "" {
		k += "@" + scope
	}
	return k
}

// C returns the handle for name, creating the counter on first use.
// Returns nil on a nil registry.
func (c *Counters) C(name string) *Counter {
	if c == nil {
		return nil
	}
	h, ok := c.m[name]
	if !ok {
		h = &Counter{}
		c.m[name] = h
	}
	return h
}

// Add increments the named counter, creating it on first use. Nil-safe.
func (c *Counters) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.C(name).Add(delta)
}

// AddKey is Add(Key(layer, object, verb, scope), delta) without building
// the name: per-message call sites whose scope is a host name count
// through it, so the name is concatenated once per counter rather than
// once per count. Like Add, it creates the counter on first use and no
// earlier — a counter must not exist, and print as 0, before it has
// counted. Nil-safe.
func (c *Counters) AddKey(layer, object, verb, scope string, delta int64) {
	if c == nil {
		return
	}
	k := keyParts{layer, object, verb, scope}
	h := c.byKey[k]
	if h == nil {
		h = c.C(Key(layer, object, verb, scope))
		c.byKey[k] = h
	}
	h.Add(delta)
}

// Family is the set of counters Key(layer, object, verb, scope) over a
// fixed list of verbs and any number of scopes: one member per scope, each
// member one Counter per verb. Joining costs the member a place in a chunk
// — no name is built, nothing enters a map, no counter is allocated, and no
// member already there is copied — because the member brings its own
// counters and a scope that is rendered only when somebody reads the
// registry. A nil *Family is a valid no-op.
type Family struct {
	prefix string   // "layer.object."
	verbs  []string // in the caller's order: the order of a member's counters
	heads  []string // prefix+verb for each verb: its names up to the '@'
	// byName lists the verb indices in the order their names sort: by
	// verb+"@", since '@' ends the verb in a name ("recv@" < "recvbytes@").
	byName []int

	// chunks hold the members in join order, memberChunk to a chunk; a
	// chunk, once made, is never moved or grown.
	chunks [][]member
}

const memberChunk = 1024

type member struct {
	scope Scope
	ctrs  []Counter
}

// A Scope renders a family member's scope: AppendScope appends it to dst
// and returns the extended slice, as the strconv Append functions do.
type Scope interface {
	AppendScope(dst []byte) []byte
}

// Family returns the family of layer.object counters over verbs, creating
// it on first use; the verbs of a later call are ignored. Returns nil on a
// nil registry. A verb list that repeats a verb panics, since the names
// would not be unique, and so does an '@' in the layer, the object or a
// verb, since a name would not end in its scope.
func (c *Counters) Family(layer, object string, verbs ...string) *Family {
	if c == nil {
		return nil
	}
	prefix := layer + "." + object + "."
	if strings.Contains(prefix, "@") {
		panic(fmt.Sprintf("trace: family %s has an '@' in its name", prefix))
	}
	for _, f := range c.families {
		if f.prefix == prefix {
			return f
		}
	}
	f := &Family{prefix: prefix, verbs: slices.Clone(verbs), heads: make([]string, len(verbs)), byName: make([]int, len(verbs))}
	for i, v := range verbs {
		if strings.Contains(v, "@") || slices.Index(verbs, v) != i {
			panic(fmt.Sprintf("trace: family %s has an unusable verb list %q", prefix, verbs))
		}
		f.heads[i] = prefix + v
		f.byName[i] = i
	}
	slices.SortFunc(f.byName, func(a, b int) int { return strings.Compare(verbs[a]+"@", verbs[b]+"@") })
	c.families = append(c.families, f)
	return f
}

// Member adds a member: ctrs[i] counts the family's i-th verb under the
// scope that scope.AppendScope renders when the registry is read. The
// member's counters exist, at their current values, from this call on. The
// caller keeps counting through &ctrs[i] and must leave what scope renders
// unchanged; members whose scopes render equal are reported as one counter
// per verb holding their sum, as if they had shared a name. Nil-safe.
func (f *Family) Member(scope Scope, ctrs []Counter) {
	if f == nil {
		return
	}
	if len(ctrs) != len(f.verbs) {
		panic(fmt.Sprintf("trace: a member of family %s brings %d counters for %d verbs", f.prefix, len(ctrs), len(f.verbs)))
	}
	n := len(f.chunks)
	if n == 0 || len(f.chunks[n-1]) == memberChunk {
		f.chunks = append(f.chunks, make([]member, 0, memberChunk))
		n++
	}
	f.chunks[n-1] = append(f.chunks[n-1], member{scope, ctrs})
}

// read renders every member's scope and copies its counts, in join order:
// member i's scope is scopes[i], its count for verb v vals[i*len(verbs)+v].
// Each scope is rendered twice — once to measure them all, once into one
// string of exactly that length that every scope is cut from — so a read
// allocates the same few times however many members there are. The counts
// are copied member after member because a reader goes through them once
// per verb.
func (f *Family) read() (scopes []string, vals []int64) {
	var buf []byte
	size, n := 0, 0
	for _, chunk := range f.chunks {
		for i := range chunk {
			buf = chunk[i].scope.AppendScope(buf[:0])
			size += len(buf)
		}
		n += len(chunk)
	}
	var all strings.Builder
	all.Grow(size)
	scopes = make([]string, 0, n)
	vals = make([]int64, 0, n*len(f.verbs))
	for _, chunk := range f.chunks {
		for _, m := range chunk {
			buf = m.scope.AppendScope(buf[:0])
			at := all.Len()
			all.Write(buf)
			scopes = append(scopes, all.String()[at:])
			for i := range m.ctrs {
				vals = append(vals, m.ctrs[i].Load())
			}
		}
	}
	return scopes, vals
}

// mergeInto merges the members' counters into the sorted slice out: the
// members are read and sorted by scope once, then each verb contributes
// one run that is already in name order, members with equal scopes summed
// into one entry. The names of a run — Key(layer, object, verb, scope) each
// — are cut from one string built for the whole run. dup reports that a
// name in a run was already in out.
func (f *Family) mergeInto(out []CounterValue) (merged []CounterValue, dup bool) {
	scopes, vals := f.read()
	byScope := make([]int32, len(scopes))
	for i := range byScope {
		byScope[i] = int32(i)
	}
	slices.SortFunc(byScope, func(a, b int32) int { return strings.Compare(scopes[a], scopes[b]) })
	distinct, scopeBytes := 0, 0
	for i, m := range byScope {
		if i == 0 || scopes[m] != scopes[byScope[i-1]] {
			distinct++
			scopeBytes += len(scopes[m])
		}
	}
	nv := len(f.verbs)
	run := make([]CounterValue, 0, distinct)
	for _, v := range f.byName {
		head := f.heads[v]
		var names strings.Builder
		names.Grow(distinct*(len(head)+1) + scopeBytes)
		run = run[:0]
		for i := 0; i < len(byScope); {
			scope, sum := scopes[byScope[i]], int64(0)
			for ; i < len(byScope) && scopes[byScope[i]] == scope; i++ {
				sum += vals[int(byScope[i])*nv+v]
			}
			at := names.Len()
			names.WriteString(head)
			if scope != "" {
				names.WriteByte('@')
				names.WriteString(scope)
			}
			run = append(run, CounterValue{Name: names.String()[at:], Value: sum})
		}
		var d bool
		out, d = mergeSorted(out, run)
		dup = dup || d
	}
	return out, dup
}

// mergeSorted merges the sorted run b into the sorted slice a, in place
// from the back: it moves only the entries of a that sort after b's first,
// so a run that belongs behind everything costs one comparison per entry.
// dup reports that some name occurs on both sides (the two end up adjacent).
func mergeSorted(a, b []CounterValue) (merged []CounterValue, dup bool) {
	i, j := len(a)-1, len(b)-1
	a = append(a, b...) // room; overwritten below
	for k := len(a) - 1; j >= 0; k-- {
		c := -1
		if i >= 0 {
			c = strings.Compare(a[i].Name, b[j].Name)
		}
		if c > 0 {
			a[k] = a[i]
			i--
		} else {
			dup = dup || c == 0
			a[k] = b[j]
			j--
		}
	}
	return a, dup
}

// get sums the members whose counter for some verb is called name.
func (f *Family) get(name string) int64 {
	rest, ok := strings.CutPrefix(name, f.prefix)
	if !ok {
		return 0
	}
	verb, scope, hasScope := strings.Cut(rest, "@")
	v := slices.Index(f.verbs, verb)
	if v < 0 || hasScope && scope == "" { // Key writes no bare "@"
		return 0
	}
	var total int64
	var buf []byte
	for _, chunk := range f.chunks {
		for _, m := range chunk {
			if buf = m.scope.AppendScope(buf[:0]); string(buf) == scope {
				total += m.ctrs[v].Load()
			}
		}
	}
	return total
}

// Get returns the named counter's value, or 0 if it was never incremented.
// A name that belongs to a family is found by rendering its members' scopes
// one by one; that is for tests and tools, not for a hot path.
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	total := c.m[name].Load()
	for _, f := range c.families {
		total += f.get(name)
	}
	return total
}

// CounterValue is one snapshot entry: Name and Value. It is the exposition
// writer's sample type, metrics.NamedValue, so a snapshot can be written as
// metrics.PromSnapshot.Counters; Export hands its plain counters over as
// these too.
type CounterValue = metrics.NamedValue

// Snapshot returns every counter sorted by name — the deterministic dump
// order. Returns nil on a nil registry.
//
// Only the plain counters and each family's scopes are sorted; a family's
// counters are then merged in as sorted runs, one per verb.
func (c *Counters) Snapshot() []CounterValue {
	if c == nil {
		return nil
	}
	size := len(c.m)
	for _, f := range c.families {
		for _, chunk := range f.chunks {
			size += len(chunk) * len(f.verbs)
		}
	}
	out := make([]CounterValue, 0, size)
	for name, h := range c.m {
		out = append(out, CounterValue{Name: name, Value: h.v})
	}
	slices.SortFunc(out, func(a, b CounterValue) int { return strings.Compare(a.Name, b.Name) })

	dups := false
	for _, f := range c.families {
		var dup bool
		out, dup = f.mergeInto(out)
		dups = dups || dup
	}
	if dups {
		// Two spellings of one name — a plain counter named like a member, or
		// two families whose names overlap — are one counter.
		w := 0
		for _, cv := range out {
			if w > 0 && out[w-1].Name == cv.Name {
				out[w-1].Value += cv.Value
				continue
			}
			out[w] = cv
			w++
		}
		out = out[:w]
	}
	return out
}

// Export returns every counter the way metrics.WritePrometheus takes them
// (metrics.PromSnapshot's Counters and CounterFamilies): the plain counters
// in no particular order, and each family as its verbs' names, its
// members' rendered scopes and their counts. No name is built. Written,
// they are what Snapshot would write. Returns nils on a nil registry.
func (c *Counters) Export() (plain []CounterValue, fams []metrics.CounterFamily) {
	if c == nil {
		return nil, nil
	}
	plain = make([]CounterValue, 0, len(c.m))
	for name, h := range c.m {
		plain = append(plain, CounterValue{Name: name, Value: h.v})
	}
	for _, f := range c.families {
		scopes, vals := f.read()
		fams = append(fams, metrics.CounterFamily{Heads: f.heads, Scopes: scopes, Values: vals})
	}
	return plain, fams
}

// String renders the snapshot as an aligned two-column table.
func (c *Counters) String() string {
	snap := c.Snapshot()
	if len(snap) == 0 {
		return "(no counters)\n"
	}
	width := 0
	for _, cv := range snap {
		if len(cv.Name) > width {
			width = len(cv.Name)
		}
	}
	var sb strings.Builder
	for _, cv := range snap {
		fmt.Fprintf(&sb, "%-*s %d\n", width, cv.Name, cv.Value)
	}
	return sb.String()
}
