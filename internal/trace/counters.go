package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
type Counters struct {
	mu sync.RWMutex
	m  map[string]*Counter
	// byKey indexes the same handles by the parts of their Key name, for
	// AddKey.
	byKey map[keyParts]*Counter
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

// Get returns the named counter's value, or 0 if it was never incremented.
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	h := c.m[name]
	c.mu.RUnlock()
	return h.Load()
}

// CounterValue is one snapshot entry.
type CounterValue struct {
	Name  string
	Value int64
}

// Snapshot returns every counter sorted by name — the deterministic dump
// order. Returns nil on a nil registry.
func (c *Counters) Snapshot() []CounterValue {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	out := make([]CounterValue, 0, len(c.m))
	for name, h := range c.m {
		out = append(out, CounterValue{Name: name, Value: h.Load()})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
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
