package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// This file reconstructs causal request trees from a trace and attributes
// each request's end-to-end latency along its critical path — the automated
// version of the paper's Figure 2-5 per-layer decomposition, including
// "which subjob gated barrier release".
//
// Tree building uses only the propagated span context (Event.Req and
// Event.Span): every span event with the same (Req, Span) path becomes one
// Node holding the intervals of all its occurrences, and a node's parent is
// the longest proper "/"-prefix of its path that names another node. The
// critical path of a window [ws, we) is computed by walking backward from
// we: the overlapping child interval ending latest is attributed its
// (clipped) sub-window recursively, the gap above it is the node's own
// time, and the walk resumes from that child's start. The produced segments
// exactly partition the window, so critical-path durations always sum to
// the root's duration — the measured end-to-end latency.

// Interval is one occurrence of a span node.
type Interval struct {
	Start, End time.Duration
}

// Node is one span path in a request's causal tree. A path that was emitted
// more than once (e.g. the per-slice "commit" span, or message hops under
// one call) holds every occurrence in Intervals.
type Node struct {
	Path      string
	Cat, Name string
	Intervals []Interval
	Children  []*Node
	Instants  int
}

// Window returns the node's overall extent: earliest interval start to
// latest interval end.
func (n *Node) Window() (start, end time.Duration) {
	start, end = n.Intervals[0].Start, n.Intervals[0].End
	for _, iv := range n.Intervals[1:] {
		if iv.Start < start {
			start = iv.Start
		}
		if iv.End > end {
			end = iv.End
		}
	}
	return start, end
}

// Tree is the causal tree of one request id.
type Tree struct {
	Req string
	// Root is the node with path "req" (the NewRequest root), nil for
	// daemon trees whose spans all live below an unemitted root.
	Root *Node
	// Roots are all nodes without a parent in this tree.
	Roots []*Node
	Nodes map[string]*Node
	// Loose counts instant events whose span path matched no node even by
	// prefix.
	Loose int
}

// Segment is one critical-path piece: [Start, End) of the request's
// end-to-end window attributed to Node.
type Segment struct {
	Node       *Node
	Start, End time.Duration
}

// Dur returns the segment's length.
func (s Segment) Dur() time.Duration { return s.End - s.Start }

// Analysis is the result of reconstructing causal trees from a trace.
type Analysis struct {
	// Trees holds one tree per request id, sorted by id.
	Trees []*Tree
	// Events counts all input events; WithReq those carrying a request id.
	Events, WithReq int
}

// Analyze groups events by request id and builds each request's causal
// tree. The input order does not matter; events are visited in the
// deterministic export order, so same-seed traces analyze to identical
// trees. The input is left as it is: what is sorted is a permutation of
// its indices, not a copy of the events.
func Analyze(events []Event) *Analysis {
	order := exportOrder(len(events), func(i, j uint32) int { return compare(&events[i], &events[j]) })
	a := &Analysis{Events: len(events)}
	byReq := map[string]*Tree{}
	for _, i := range order {
		ev := &events[i]
		if ev.Req == "" {
			continue
		}
		a.WithReq++
		t := byReq[ev.Req]
		if t == nil {
			t = &Tree{Req: ev.Req, Nodes: map[string]*Node{}}
			byReq[ev.Req] = t
			a.Trees = append(a.Trees, t)
		}
		if ev.Dur > 0 {
			n := t.Nodes[ev.Span]
			if n == nil {
				n = &Node{Path: ev.Span, Cat: ev.Cat, Name: ev.Name}
				t.Nodes[ev.Span] = n
			}
			n.Intervals = append(n.Intervals, Interval{Start: ev.At, End: ev.At + ev.Dur})
		}
	}
	// Link parents and attach instants once all nodes exist.
	for _, t := range byReq {
		paths := make([]string, 0, len(t.Nodes))
		for p := range t.Nodes {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			n := t.Nodes[p]
			if parent := t.ancestor(parentPath(p)); parent != nil {
				parent.Children = append(parent.Children, n)
			} else {
				t.Roots = append(t.Roots, n)
			}
		}
		t.Root = t.Nodes["req"]
	}
	for _, i := range order {
		ev := &events[i]
		if ev.Req == "" || ev.Dur > 0 {
			continue
		}
		t := byReq[ev.Req]
		if n := t.ancestor(ev.Span); n != nil {
			n.Instants++
		} else {
			t.Loose++
		}
	}
	sort.Slice(a.Trees, func(i, j int) bool { return a.Trees[i].Req < a.Trees[j].Req })
	return a
}

// ancestor returns the node at path p, or at the longest proper prefix of p
// that names a node, or nil.
func (t *Tree) ancestor(p string) *Node {
	for p != "" {
		if n := t.Nodes[p]; n != nil {
			return n
		}
		p = parentPath(p)
	}
	return nil
}

func parentPath(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i < 0 {
		return ""
	}
	return p[:i]
}

// CriticalPath attributes the tree's end-to-end window along its critical
// path. It requires a "req" root; daemon trees return nil. The returned
// segments exactly partition the root window, latest first.
func (t *Tree) CriticalPath() []Segment {
	if t.Root == nil {
		return nil
	}
	ws, we := t.Root.Window()
	return criticalPath(t.Root, ws, we)
}

func criticalPath(n *Node, ws, we time.Duration) []Segment {
	type childIv struct {
		node       *Node
		start, end time.Duration
	}
	var ivs []childIv
	for _, c := range n.Children {
		for _, iv := range c.Intervals {
			s, e := iv.Start, iv.End
			if s < ws {
				s = ws
			}
			if e > we {
				e = we
			}
			if e > s {
				ivs = append(ivs, childIv{c, s, e})
			}
		}
	}
	var segs []Segment
	cur := we
	for cur > ws {
		var best *childIv
		var bestEnd time.Duration
		for i := range ivs {
			iv := &ivs[i]
			if iv.start >= cur {
				continue
			}
			e := iv.end
			if e > cur {
				e = cur
			}
			if best == nil || e > bestEnd ||
				(e == bestEnd && (iv.start > best.start ||
					(iv.start == best.start && iv.node.Path < best.node.Path))) {
				best, bestEnd = iv, e
			}
		}
		if best == nil {
			segs = append(segs, Segment{Node: n, Start: ws, End: cur})
			break
		}
		if bestEnd < cur {
			segs = append(segs, Segment{Node: n, Start: bestEnd, End: cur})
		}
		segs = append(segs, criticalPath(best.node, best.start, bestEnd)...)
		cur = best.start
	}
	return segs
}

// GatingSubjob names the subjob whose startup gated barrier release: the
// "startup-wait" span ending latest in the tree. Empty when the tree has
// none (e.g. a failed request).
func (t *Tree) GatingSubjob() string {
	var best *Node
	var bestEnd time.Duration
	paths := make([]string, 0, len(t.Nodes))
	for p := range t.Nodes {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		n := t.Nodes[p]
		if n.Name != "startup-wait" {
			continue
		}
		_, end := n.Window()
		if best == nil || end > bestEnd {
			best, bestEnd = n, end
		}
	}
	if best == nil {
		return ""
	}
	// The subjob is the path segment above "startup-wait": ".../sj:<label>".
	seg := parentPath(best.Path)
	if i := strings.LastIndexByte(seg, '/'); i >= 0 {
		seg = seg[i+1:]
	}
	return strings.TrimPrefix(seg, "sj:")
}

// RequestTrees returns the trees rooted by a NewRequest span — actual
// co-allocation requests, as opposed to daemon activity trees.
func (a *Analysis) RequestTrees() []*Tree {
	var out []*Tree
	for _, t := range a.Trees {
		if t.Root != nil {
			out = append(out, t)
		}
	}
	return out
}

// Coverage returns the fraction of events carrying a request id.
func (a *Analysis) Coverage() float64 {
	if a.Events == 0 {
		return 1
	}
	return float64(a.WithReq) / float64(a.Events)
}

// Check validates the analysis against the causal-tracing invariants and
// returns a deterministic list of problems (empty when healthy):
// request-id coverage at least 99%, every request tree single-rooted, and
// every request's critical-path segments summing exactly to its end-to-end
// latency.
func (a *Analysis) Check() []string {
	var problems []string
	if a.Coverage() < 0.99 {
		problems = append(problems, fmt.Sprintf(
			"request-id coverage %.2f%% below 99%% (%d of %d events unattributed)",
			100*a.Coverage(), a.Events-a.WithReq, a.Events))
	}
	for _, t := range a.RequestTrees() {
		if len(t.Roots) != 1 {
			var extras []string
			for _, r := range t.Roots {
				if r != t.Root {
					extras = append(extras, r.Path)
				}
			}
			problems = append(problems, fmt.Sprintf(
				"broken tree: request %s has %d roots (orphan spans: %s)",
				t.Req, len(t.Roots), strings.Join(extras, ", ")))
		}
		ws, we := t.Root.Window()
		var sum time.Duration
		for _, seg := range t.CriticalPath() {
			sum += seg.Dur()
		}
		if sum != we-ws {
			problems = append(problems, fmt.Sprintf(
				"critical path of request %s sums to %v, want end-to-end %v",
				t.Req, sum, we-ws))
		}
		if t.Loose > 0 {
			problems = append(problems, fmt.Sprintf(
				"request %s has %d instants matching no span", t.Req, t.Loose))
		}
	}
	return problems
}

// Report renders the deterministic per-request, per-layer critical-path
// attribution table plus an aggregate across all requests.
func (a *Analysis) Report() string {
	var b strings.Builder
	reqs := a.RequestTrees()
	fmt.Fprintf(&b, "causal trace: %d events, %d with request id (%.2f%% coverage), %d request trees, %d daemon trees\n",
		a.Events, a.WithReq, 100*a.Coverage(), len(reqs), len(a.Trees)-len(reqs))
	agg := map[string]time.Duration{}
	var aggTotal time.Duration
	for _, t := range reqs {
		ws, we := t.Root.Window()
		segs := t.CriticalPath()
		gate := t.GatingSubjob()
		if gate == "" {
			gate = "-"
		}
		fmt.Fprintf(&b, "\nrequest %s  total %v  gating-subjob %s\n", t.Req, we-ws, gate)
		rows := map[string]time.Duration{}
		for _, seg := range segs {
			key := seg.Node.Cat + "/" + seg.Node.Name
			rows[key] += seg.Dur()
			agg[key] += seg.Dur()
			aggTotal += seg.Dur()
		}
		writeAttribution(&b, rows, we-ws)
	}
	if len(reqs) > 0 {
		fmt.Fprintf(&b, "\naggregate critical-path attribution over %d requests (total %v)\n", len(reqs), aggTotal)
		writeAttribution(&b, agg, aggTotal)
	}
	return b.String()
}

// writeAttribution prints one layer/name attribution table, largest share
// first, ties broken by name.
func writeAttribution(b *strings.Builder, rows map[string]time.Duration, total time.Duration) {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if rows[keys[i]] != rows[keys[j]] {
			return rows[keys[i]] > rows[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		share := 0.0
		if total > 0 {
			share = 100 * float64(rows[k]) / float64(total)
		}
		fmt.Fprintf(b, "  %-28s %14v %6.2f%%\n", k, rows[k], share)
	}
}
