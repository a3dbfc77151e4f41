package metrics

import (
	"fmt"
	"io"
	"sort"
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
// package cannot import trace (trace imports metrics), so callers convert
// trace.Counters.Snapshot() into this neutral pair form — grid.WriteMetrics
// does it for every embedded registry.
type NamedValue struct {
	Name  string
	Value int64
}

// PromSnapshot bundles the registries for one exposition write. Any field
// may be zero/nil; the corresponding family is simply absent.
type PromSnapshot struct {
	// Prefix is prepended to every metric name; defaults to "cogrid_".
	Prefix string
	// Counters are monotonic counter samples, typically converted from a
	// trace.Counters snapshot.
	Counters []NamedValue
	// Gauges are sampled at virtual time GaugeAt (normally Sim.Now() at
	// end of run).
	Gauges  *GaugeSet
	GaugeAt time.Duration
	// Hists are exposed as native Prometheus histograms with cumulative
	// le-buckets derived from the non-empty HDR buckets.
	Hists *HistogramSet
}

// WritePrometheus writes snap in Prometheus text format. Dotted metric
// names become underscore-separated; a trailing "@scope" suffix (the
// trace.Key convention) becomes a scope="..." label so per-host counters
// stay one family with bounded name cardinality.
func WritePrometheus(w io.Writer, snap PromSnapshot) error {
	prefix := snap.Prefix
	if prefix == "" {
		prefix = "cogrid_"
	}

	// Counters: group rows by sanitized family name so each # TYPE header
	// is emitted once with its scoped samples contiguous beneath it.
	type promRow struct {
		family string
		scope  string
		value  string
	}
	rows := make([]promRow, 0, len(snap.Counters))
	for _, cv := range snap.Counters {
		base, scope := splitScope(cv.Name)
		rows = append(rows, promRow{
			family: prefix + promName(base),
			scope:  scope,
			value:  strconv.FormatInt(cv.Value, 10),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].family != rows[j].family {
			return rows[i].family < rows[j].family
		}
		return rows[i].scope < rows[j].scope
	})
	for i, r := range rows {
		if i == 0 || rows[i-1].family != r.family {
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", r.family); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", r.family, promLabels(r.scope), r.value); err != nil {
			return err
		}
	}

	// Gauges, sampled at one fixed virtual instant.
	for _, name := range snap.Gauges.Names() {
		base, scope := splitScope(name)
		family := prefix + promName(base)
		v := snap.Gauges.G(name).Value(snap.GaugeAt)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s%s %s\n",
			family, family, promLabels(scope), formatPromFloat(v)); err != nil {
			return err
		}
	}

	// Histograms: cumulative le-buckets over the non-empty HDR buckets,
	// using each bucket's inclusive upper bound as its le value.
	for _, name := range snap.Hists.Names() {
		h := snap.Hists.H(name)
		base, scope := splitScope(name)
		family := prefix + promName(base)
		labels := scope
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", family); err != nil {
			return err
		}
		var cum uint64
		for _, b := range h.Buckets() {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				family, promBucketLabels(labels, strconv.FormatInt(b.High, 10)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			family, promBucketLabels(labels, "+Inf"), h.Count()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n",
			family, h.Sum(), family, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// splitScope separates a trace.Key-style name into its base and @scope.
func splitScope(name string) (base, scope string) {
	if i := strings.LastIndexByte(name, '@'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return name, ""
}

// promName sanitizes a dotted metric base name into [a-zA-Z0-9_:]+.
func promName(s string) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func promLabels(scope string) string {
	if scope == "" {
		return ""
	}
	return `{scope="` + escapeLabel(scope) + `"}`
}

func promBucketLabels(scope, le string) string {
	if scope == "" {
		return `{le="` + le + `"}`
	}
	return `{scope="` + escapeLabel(scope) + `",le="` + le + `"}`
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

func formatPromFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
