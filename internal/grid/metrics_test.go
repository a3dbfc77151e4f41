package grid_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"cogrid/internal/experiments"
	"cogrid/internal/grid"
	"cogrid/internal/trace"
)

// promSample is one parsed exposition line: sanitized family name plus
// the scope label (empty when unscoped). Histogram bucket lines fold into
// their family via the _bucket suffix.
type promSample struct {
	family string
	scope  string
}

// promName mirrors the exposition writer's sanitization rule.
func promName(s string) string {
	var sb strings.Builder
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

// expectedKey converts a registry name ("layer.object.verb@scope") into
// the exposition sample key it must appear under.
func expectedKey(name string) string {
	base, scope := name, ""
	if i := strings.LastIndexByte(name, '@'); i >= 0 {
		base, scope = name[:i], name[i+1:]
	}
	return "cogrid_" + promName(base) + "|" + scope
}

// parseExposition counts samples per family|scope key, separating plain
// samples (counters, gauges) from histogram families (seen via _count).
func parseExposition(t *testing.T, text string) (plain, histograms map[string]int) {
	t.Helper()
	plain, histograms = map[string]int{}, map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		scope := ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			labels := name[i+1 : len(name)-1]
			name = name[:i]
			for _, kv := range strings.Split(labels, ",") {
				if v, found := strings.CutPrefix(kv, `scope="`); found {
					scope = strings.TrimSuffix(v, `"`)
				}
			}
		}
		if !ok || rest == "" {
			t.Fatalf("malformed sample line: %q", line)
		}
		switch {
		case strings.HasSuffix(name, "_bucket"), strings.HasSuffix(name, "_sum"):
			// counted via _count below
		case strings.HasSuffix(name, "_count"):
			histograms[strings.TrimSuffix(name, "_count")+"|"+scope]++
		default:
			plain[name+"|"+scope]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return plain, histograms
}

// TestWriteMetricsExposesEveryRegistry pins exposition completeness:
// every registered counter, gauge, and histogram appears exactly once in
// the Prometheus output, and nothing appears that is not registered. The
// grid comes from the faulted row of the SLO smoke study, so per-reason
// drop counters, alert counters, the active-alert and drop gauges and the
// flight-recorder dump counters are all live in the registries.
func TestWriteMetricsExposesEveryRegistry(t *testing.T) {
	_, g, _ := experiments.SLORun(1, true, 0.75)
	var buf bytes.Buffer
	if err := g.WriteMetrics(&buf); err != nil {
		t.Fatalf("write metrics: %v", err)
	}
	plain, hists := parseExposition(t, buf.String())

	expectedPlain := map[string]int{}
	for _, cv := range g.Counters.Snapshot() {
		expectedPlain[expectedKey(cv.Name)]++
	}
	for _, name := range g.Gauges.Names() {
		expectedPlain[expectedKey(name)]++
	}
	expectedHists := map[string]int{}
	for _, name := range g.Hists.Names() {
		expectedHists[expectedKey(name)]++
	}

	// The scenario must actually exercise the observability plane, or the
	// completeness claim is vacuous.
	for _, want := range []string{
		"cogrid_slo_alert_fire|broker-orphans",
		"cogrid_flightrec_dump_slo|",
		"cogrid_transport_drops|",
		"cogrid_slo_alerts_active|",
		"cogrid_broker_orphans|broker0",
	} {
		if expectedPlain[want] == 0 {
			t.Errorf("scenario registered no %q metric", want)
		}
	}
	if err := diffCounts(expectedPlain, plain); err != nil {
		t.Errorf("counter/gauge exposition mismatch: %v", err)
	}
	if err := diffCounts(expectedHists, hists); err != nil {
		t.Errorf("histogram exposition mismatch: %v", err)
	}
}

// connScope is a connection end's scope as the transport renders one.
type connScope int

func (c connScope) AppendScope(dst []byte) []byte {
	dst = append(dst, "site"...)
	dst = strconv.AppendInt(dst, int64(c%24), 10)
	dst = append(dst, ":client->broker0:duroc@"...)
	return strconv.AppendInt(dst, 1_000_000+int64(c)*37, 10)
}

// WriteMetrics streams the per-connection counters: what it allocates does
// not grow with the connection ends it writes. (Through a sorted snapshot
// it was a name and a row per counter, and a family name per distinct
// connection direction and dial time; scopes rendered into 64 KiB blocks
// would add five or six here.) The count itself moves by one or two between
// runs, hence the slack.
func TestWriteMetricsAllocationsDoNotGrowWithMembers(t *testing.T) {
	allocs := func(members int) float64 {
		g := grid.New(grid.Options{Trace: true})
		g.Counters.Add("rpc.call.ok@m1", 3)
		fam := g.Counters.Family("transport", "conn") // the network's family
		for i := 0; i < members; i++ {
			ctrs := make([]trace.Counter, 5)
			ctrs[i%5].Add(int64(i))
			fam.Member(connScope(i), ctrs)
		}
		return testing.AllocsPerRun(3, func() {
			if err := g.WriteMetrics(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10_000), allocs(20_000)
	t.Logf("WriteMetrics: %v allocations with 10 000 members, %v with 20 000", small, large)
	if large > small+2 {
		t.Errorf("WriteMetrics allocates %v times with 20 000 members, %v with 10 000: the count grows with the members", large, small)
	}
	if small > 40 {
		t.Errorf("WriteMetrics allocates %v times, want at most 40", small)
	}
}

// diffCounts requires want == got as multisets, reporting the first few
// differences.
func diffCounts(want, got map[string]int) error {
	var bad []string
	for k, n := range want {
		if got[k] != n {
			bad = append(bad, fmt.Sprintf("%s: registered %d, exposed %d", k, n, got[k]))
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, fmt.Sprintf("%s: exposed %d but never registered", k, n))
		}
	}
	if len(bad) > 0 {
		if len(bad) > 8 {
			bad = bad[:8]
		}
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}
