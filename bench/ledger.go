package main

import (
	"fmt"
	"sort"
	"strings"
)

// metric is one named number the benchmark prints.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// For per-layer metrics, written down before measuring: the end-to-end
	// metrics this one should move and the workloads it should move them
	// on (comma-separated names).
	moves, on string
}

// endToEnd lists what a user of the simulator sees, per workload: five
// numbers on the host clock (what the simulation costs) and three on the
// virtual clock (what the paper measures). Bounds live in BENCHMARK.json.
var endToEnd = []metric{
	{name: "wall_us_per_op", unit: "us", better: "lower"},
	{name: "allocs_per_op", unit: "count", better: "lower"},
	{name: "alloc_kb_per_op", unit: "KB", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "vt_p50_ms", unit: "ms", better: "lower"},
	{name: "vt_p95_ms", unit: "ms", better: "lower"},
	{name: "vt_goodput_per_min", unit: "1/min", better: "higher"},
}

const (
	hostCost  = "wall_us_per_op,allocs_per_op"
	hostBytes = "wall_us_per_op,allocs_per_op,alloc_kb_per_op"
	protocol  = "duroc_wide,broker_open,fed_chaos"
	brokered  = "broker_open,fed_chaos"
	observed  = "broker_open_obs,fed_chaos"
	every     = "duroc_wide,broker_open,broker_open_obs,fed_chaos,kernel_scale"
)

// isolated lists family A: each layer's driver in layers.go with the
// end-to-end metrics its cost is a share of.
var isolated = []metric{
	{name: "vtime.timer", moves: hostCost, on: every},
	{name: "vtime.pingpong", moves: hostCost, on: every},
	{name: "vtime.spawn", moves: hostCost, on: every},
	{name: "transport.roundtrip", moves: hostBytes, on: protocol},
	{name: "wire.encode", moves: hostBytes, on: protocol},
	{name: "wire.decode", moves: hostBytes, on: protocol},
	{name: "rpc.call", moves: hostBytes, on: protocol},
	{name: "gsi.handshake", moves: hostCost, on: "duroc_wide"},
	{name: "nis.initgroups", moves: hostCost, on: "duroc_wide"},
	{name: "rsl.parse", moves: hostCost, on: "duroc_wide"},
	{name: "gram.submit", moves: hostCost, on: "duroc_wide"},
	{name: "lrm.fork_job", moves: "wall_us_per_op", on: "duroc_wide"},
	{name: "lrm.batch_job", moves: hostCost, on: "kernel_scale,broker_open"},
	{name: "mds.query", moves: hostCost, on: "broker_open"},
	{name: "core.coalloc2", moves: "allocs_per_op", on: "duroc_wide"},
	{name: "broker.submit", moves: hostCost, on: "broker_open"},
	{name: "federation.forward", moves: hostCost, on: "fed_chaos"},
	{name: "trace.emit", moves: hostBytes + ",peak_rss_mb", on: observed},
	{name: "trace.export", moves: hostBytes, on: observed},
	{name: "metrics.hist_record", moves: "wall_us_per_op", on: observed},
	{name: "flightrec.record", moves: "wall_us_per_op,peak_rss_mb", on: observed},
}

// measured lists families B (work counts per op), C (virtual time on the
// critical path) and D (the traced run's own cost), per workload.
var measured = []metric{
	{name: "vtime.timers_per_op", unit: "count", moves: hostCost, on: "kernel_scale"},
	{name: "transport.msgs_per_op", unit: "count", moves: hostBytes, on: protocol},
	{name: "transport.bytes_per_op", unit: "B", moves: "alloc_kb_per_op", on: protocol},
	{name: "rpc.calls_per_op", unit: "count", moves: hostBytes, on: protocol},
	{name: "rpc.errors_per_op", unit: "count", moves: "vt_p95_ms,vt_goodput_per_min", on: "fed_chaos"},
	{name: "gram.submits_per_op", unit: "count", moves: hostCost, on: "duroc_wide"},
	{name: "gram.cancels_per_op", unit: "count", moves: "vt_p95_ms,wall_us_per_op", on: "fed_chaos"},
	{name: "lrm.jobs_per_op", unit: "count", moves: hostCost, on: "kernel_scale,broker_open"},
	{name: "core.subjobs_per_op", unit: "count", moves: "allocs_per_op", on: "duroc_wide"},
	{name: "core.aborts_per_op", unit: "count", moves: "vt_p95_ms,vt_goodput_per_min", on: "fed_chaos"},
	{name: "core.commit_ratio", unit: "ratio", better: "higher", moves: "vt_goodput_per_min", on: "fed_chaos"},
	{name: "broker.attempts_per_op", unit: "count", moves: hostCost, on: brokered},
	{name: "broker.rejects_per_op", unit: "count", moves: "vt_p95_ms", on: "broker_open"},
	{name: "broker.retries_per_op", unit: "count", moves: "vt_p95_ms,wall_us_per_op", on: "fed_chaos"},
	{name: "broker.orphans_per_op", unit: "count", moves: "vt_goodput_per_min,wall_us_per_op", on: "fed_chaos"},
	{name: "broker.cache_hit_ratio", unit: "ratio", better: "higher", moves: hostCost, on: "broker_open"},
	{name: "federation.forwards_per_op", unit: "count", moves: "wall_us_per_op,vt_p95_ms", on: "fed_chaos"},
	{name: "federation.appends_per_op", unit: "count", moves: hostCost, on: "fed_chaos"},
	{name: "federation.heartbeats_per_op", unit: "count", moves: hostCost, on: "fed_chaos"},
	{name: "federation.elections", unit: "count", moves: "vt_p95_ms", on: "fed_chaos"},
	{name: "trace.events_per_op", unit: "count", moves: hostBytes + ",peak_rss_mb", on: observed},
	{name: "flightrec.dumps", unit: "count", moves: "wall_us_per_op", on: "fed_chaos"},

	{name: "broker.vt_ms_per_op", unit: "ms", moves: "vt_p95_ms", on: "broker_open"},
	{name: "core.vt_ms_per_op", unit: "ms", moves: "vt_p50_ms", on: "duroc_wide"},
	{name: "gram.vt_ms_per_op", unit: "ms", moves: "vt_p50_ms", on: protocol},
	{name: "rpc.vt_ms_per_op", unit: "ms", moves: "vt_p50_ms", on: protocol},
	{name: "transport.vt_ms_per_op", unit: "ms", moves: "vt_p50_ms,vt_p95_ms", on: "fed_chaos"},
	{name: "federation.vt_ms_per_op", unit: "ms", moves: "vt_p95_ms", on: "fed_chaos"},
	{name: "lrm.vt_queue_ms_per_op", unit: "ms", moves: "vt_p50_ms", on: "kernel_scale,broker_open"},

	{name: "bench.trace_overhead_ratio", unit: "ratio", moves: "wall_us_per_op", on: observed},
}

// perLayer is the traced run's full metric list: two per isolated driver,
// then the measured families.
var perLayer = func() []metric {
	var out []metric
	for _, m := range isolated {
		out = append(out,
			metric{name: m.name + ".ns_per_op", unit: "ns", better: "lower", moves: m.moves, on: m.on},
			metric{name: m.name + ".allocs_per_op", unit: "count", better: "lower", moves: m.moves, on: m.on})
	}
	for _, m := range measured {
		if m.better == "" {
			m.better = "lower"
		}
		out = append(out, m)
	}
	return out
}()

// pathLayers maps the causal analyzer's trace categories to the layer
// whose <layer>.vt_ms_per_op takes that share of the critical path. The
// client span is the request's root and is wholly covered by its
// children, so it owns no time; any other category is a gate failure,
// because the partition would no longer sum to the latency.
var pathLayers = map[string]string{
	"broker": "broker", "duroc": "core", "gram": "gram",
	"rpc": "rpc", "transport": "transport", "fed": "federation",
}

// layerMetrics turns one traced round (and the event-name counts its
// driver took from Tracer.Events) into families B and C.
func layerMetrics(r *round) (map[string]float64, []string) {
	ops := float64(r.Ops)
	c := func(names ...string) float64 {
		var sum int64
		for _, n := range names {
			sum += r.Counters[n]
		}
		return float64(sum)
	}
	prefix := func(p string) float64 {
		var sum int64
		for name, v := range r.Counters {
			if strings.HasPrefix(name, p) {
				sum += v
			}
		}
		return float64(sum)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	out := map[string]float64{
		"vtime.timers_per_op":          float64(r.Timers) / ops,
		"transport.msgs_per_op":        float64(r.Msgs) / ops,
		"transport.bytes_per_op":       float64(r.Bytes) / ops,
		"rpc.calls_per_op":             prefix("rpc.call.") / ops,
		"rpc.errors_per_op":            c("rpc.call.error", "rpc.call.timeout") / ops,
		"gram.submits_per_op":          c("gram.job.submit") / ops,
		"gram.cancels_per_op":          c("event:rpc call:cancel") / ops,
		"lrm.jobs_per_op":              c("lrm.jobs") / ops,
		"core.subjobs_per_op":          c("duroc.event.submitted") / ops,
		"core.aborts_per_op":           c("duroc.event.aborted") / ops,
		"core.commit_ratio":            ratio(c("duroc.commit.ok"), prefix("duroc.commit.")),
		"broker.attempts_per_op":       c("event:broker attempt") / ops,
		"broker.rejects_per_op":        c("broker.queue.reject") / ops,
		"broker.retries_per_op":        prefix("broker.retry.") / ops,
		"broker.orphans_per_op":        c("broker.orphan.record") / ops,
		"broker.cache_hit_ratio":       ratio(c("broker.cache.hit"), c("broker.cache.hit", "broker.cache.stale", "broker.cache.miss")),
		"federation.forwards_per_op":   c("fed.forward.send") / ops,
		"federation.appends_per_op":    c("fed.append.recv") / ops,
		"federation.heartbeats_per_op": c("fed.heartbeat.round") / ops,
		"federation.elections":         c("fed.election.win"),
		"trace.events_per_op":          float64(r.Events) / ops,
		"flightrec.dumps":              prefix("flightrec.dump.") - c("flightrec.dump.skip"),
		"lrm.vt_queue_ms_per_op":       r.QueueWaitMs / ops,
	}
	for _, layer := range pathLayers {
		out[layer+".vt_ms_per_op"] = 0
	}
	var problems []string
	var sum float64
	cats := make([]string, 0, len(r.PathMs))
	for cat := range r.PathMs {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		layer, ok := pathLayers[cat]
		if !ok {
			problems = append(problems, fmt.Sprintf("critical path holds %.3f ms of category %q, which no layer metric takes", r.PathMs[cat], cat))
			continue
		}
		out[layer+".vt_ms_per_op"] += r.PathMs[cat] / ops
		sum += r.PathMs[cat]
	}
	if d := sum - r.PathLatMs; d > 1e-6*r.PathLatMs || -d > 1e-6*r.PathLatMs {
		problems = append(problems, fmt.Sprintf("critical-path shares sum to %.3f ms, request latencies to %.3f ms", sum, r.PathLatMs))
	}
	return out, problems
}
