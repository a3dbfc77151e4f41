package trace

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"cogrid/internal/metrics"
)

// Counter is a handle to one named counter. Callers on hot paths should
// obtain the handle once with Counters.C and keep it: Add is a single
// atomic operation. A nil *Counter is a valid no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Nil-safe.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counters is a registry of named monotonic counters. Names follow the
// layer.object.verb convention with an optional @scope suffix naming the
// host, service, or connection the count belongs to — see Key. The registry
// lookup takes a read lock; the increment itself is atomic, so cached
// handles make counting lock-free on the hot path. A nil *Counters is a
// valid no-op registry.
//
// Counters come in two kinds. A plain counter is registered under its name
// (C, Add, AddKey). A counter that exists once per connection end — tens of
// thousands a run, read only when the run is exported — belongs to a Family
// and has no name until Snapshot renders one.
type Counters struct {
	mu sync.RWMutex
	m  map[string]*Counter
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
	c.mu.RLock()
	h, ok := c.m[name]
	c.mu.RUnlock()
	if ok {
		return h
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok = c.m[name]; ok {
		return h
	}
	h = &Counter{}
	c.m[name] = h
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
	c.mu.RLock()
	h := c.byKey[k]
	c.mu.RUnlock()
	if h == nil {
		h = c.C(Key(layer, object, verb, scope))
		c.mu.Lock()
		c.byKey[k] = h
		c.mu.Unlock()
	}
	h.Add(delta)
}

// Family is the set of counters Key(layer, object, verb, scope) over a
// fixed list of verbs and any number of scopes: one member per scope, each
// member one Counter per verb. Joining costs the member a slice append —
// no name is built, nothing enters a map, no counter is allocated — because
// the member brings its own counters and a scope that is rendered only when
// somebody reads the registry. A nil *Family is a valid no-op.
type Family struct {
	prefix string   // "layer.object."
	verbs  []string // in the caller's order: the order of a member's counters
	// byName lists the verb indices in the order their names sort: by
	// verb+"@", since '@' ends the verb in a name ("recv@" < "recvbytes@").
	byName []int

	mu      sync.Mutex
	members []member // append-only; an entry never changes once appended
}

type member struct {
	scope fmt.Stringer
	ctrs  []Counter
}

// Family returns the family of layer.object counters over verbs, creating
// it on first use; the verbs of a later call are ignored. Returns nil on a
// nil registry. A verb list that repeats a verb or has '@' in one panics:
// the names would not be unique.
func (c *Counters) Family(layer, object string, verbs ...string) *Family {
	if c == nil {
		return nil
	}
	prefix := layer + "." + object + "."
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.families {
		if f.prefix == prefix {
			return f
		}
	}
	f := &Family{prefix: prefix, verbs: slices.Clone(verbs), byName: make([]int, len(verbs))}
	for i, v := range verbs {
		if strings.Contains(v, "@") || slices.Index(verbs, v) != i {
			panic(fmt.Sprintf("trace: family %s has an unusable verb list %q", prefix, verbs))
		}
		f.byName[i] = i
	}
	slices.SortFunc(f.byName, func(a, b int) int { return strings.Compare(verbs[a]+"@", verbs[b]+"@") })
	c.families = append(c.families, f)
	return f
}

// Member adds a member: ctrs[i] counts the family's i-th verb under the
// scope that scope.String() renders when the registry is read. The member's
// counters exist, at their current values, from this call on. The caller
// keeps counting through &ctrs[i] and must leave what scope renders
// unchanged; members whose scopes render equal are reported as one counter
// per verb holding their sum, as if they had shared a name. Nil-safe.
func (f *Family) Member(scope fmt.Stringer, ctrs []Counter) {
	if f == nil {
		return
	}
	if len(ctrs) != len(f.verbs) {
		panic(fmt.Sprintf("trace: a member of family %s brings %d counters for %d verbs", f.prefix, len(ctrs), len(f.verbs)))
	}
	f.mu.Lock()
	f.members = append(f.members, member{scope, ctrs})
	f.mu.Unlock()
}

// scoped is one member under its rendered scope.
type scoped struct {
	scope string
	ctrs  []Counter
}

// snapshot returns the members so far; the entries are never written again.
func (f *Family) snapshot() []member {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members
}

// mergeInto merges the members' counters into the sorted slice out: every
// scope is rendered and the scopes sorted once, then each verb contributes
// one run that is already in name order, members with equal scopes summed
// into one entry. The names of a run — Key(layer, object, verb, scope) each
// — are cut from one string built for the whole run. dup reports that a
// name in a run was already in out.
func (f *Family) mergeInto(out []CounterValue, members []member) (merged []CounterValue, dup bool) {
	byScope := make([]scoped, len(members))
	for i, m := range members {
		byScope[i] = scoped{m.scope.String(), m.ctrs}
	}
	slices.SortFunc(byScope, func(a, b scoped) int { return strings.Compare(a.scope, b.scope) })
	distinct, scopeBytes := 0, 0
	for i, m := range byScope {
		if i == 0 || m.scope != byScope[i-1].scope {
			distinct++
			scopeBytes += len(m.scope)
		}
	}
	run := make([]CounterValue, 0, distinct)
	for _, v := range f.byName {
		verb := f.verbs[v]
		var names strings.Builder
		names.Grow(distinct*(len(f.prefix)+len(verb)+1) + scopeBytes)
		run = run[:0]
		for i := 0; i < len(byScope); {
			scope, sum := byScope[i].scope, int64(0)
			for ; i < len(byScope) && byScope[i].scope == scope; i++ {
				sum += byScope[i].ctrs[v].Load()
			}
			at := names.Len()
			names.WriteString(f.prefix)
			names.WriteString(verb)
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
	for _, m := range f.snapshot() {
		if m.scope.String() == scope {
			total += m.ctrs[v].Load()
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
	c.mu.RLock()
	total := c.m[name].Load()
	families := c.families
	c.mu.RUnlock()
	for _, f := range families {
		total += f.get(name)
	}
	return total
}

// CounterValue is one snapshot entry: Name and Value. It is the exposition
// writer's sample type, so a snapshot is handed to metrics.WritePrometheus
// as it is.
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
	c.mu.RLock()
	families := c.families
	members := make([][]member, len(families))
	size := len(c.m)
	for i, f := range families {
		members[i] = f.snapshot()
		size += len(members[i]) * len(f.verbs)
	}
	out := make([]CounterValue, 0, size)
	for name, h := range c.m {
		out = append(out, CounterValue{Name: name, Value: h.Load()})
	}
	c.mu.RUnlock()
	slices.SortFunc(out, func(a, b CounterValue) int { return strings.Compare(a.Name, b.Name) })

	dups := false
	for i, f := range families {
		var dup bool
		out, dup = f.mergeInto(out, members[i])
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
