package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cogrid/internal/metrics"
)

// oldPromCounters is the counter section metrics.WritePrometheus wrote from
// a Snapshot before it merged runs: one row per counter, its family the
// sanitized text before the name's last '@', the rows sorted by family and
// scope, and a # TYPE header over each family. Rows that tie on family and
// scope (a.b@s and a_b@s) came out in whatever order sort.Slice left them;
// the oracle sorts stably over the name-sorted snapshot, so it lists them
// in name order, the order the writer now documents.
func oldPromCounters(snap []CounterValue) string {
	type row struct {
		family, scope string
		value         int64
	}
	rows := make([]row, len(snap))
	for i, cv := range snap {
		base, scope := cv.Name, ""
		if at := strings.LastIndexByte(cv.Name, '@'); at >= 0 {
			base, scope = cv.Name[:at], cv.Name[at+1:]
		}
		var fam strings.Builder
		fam.WriteString("cogrid_")
		for _, r := range base {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
				fam.WriteRune(r)
			default:
				fam.WriteByte('_')
			}
		}
		rows[i] = row{fam.String(), scope, cv.Value}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].family != rows[j].family {
			return rows[i].family < rows[j].family
		}
		return rows[i].scope < rows[j].scope
	})
	var out strings.Builder
	for i, r := range rows {
		if i == 0 || rows[i-1].family != r.family {
			fmt.Fprintf(&out, "# TYPE %s counter\n", r.family)
		}
		out.WriteString(r.family)
		if r.scope != "" {
			out.WriteString(`{scope="`)
			out.WriteString(strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(r.scope))
			out.WriteString(`"}`)
		}
		fmt.Fprintf(&out, " %d\n", r.value)
	}
	return out.String()
}

// streamed is the registry's counters as grid.WriteMetrics writes them.
func streamed(t testing.TB, c *Counters) string {
	t.Helper()
	plain, fams := c.Export()
	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf, metrics.PromSnapshot{Counters: plain, CounterFamilies: fams}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// randomRegistry builds a registry whose names stress the exposition's
// order: scopes with and without '@' and the empty scope, members that
// share a scope, plain counters spelled like a member's name, bases that
// sanitize alike (a.b and a_b, recv-x and recv.x), label escapes, non-ASCII
// and invalid UTF-8, verbs that prefix one another, and two families whose
// names overlap. frag is one more piece names are made of.
func randomRegistry(rng *rand.Rand, frag string) *Counters {
	pieces := []string{"a", "b", ".", "_", "@", "-", ">", ":", "x", "é", "\xff", `\`, `"`, "\n", "1", "10", frag}
	word := func(max int) string {
		var sb strings.Builder
		for n := rng.Intn(max + 1); n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return sb.String()
	}
	c := NewCounters()
	fams := []struct {
		f     *Family
		verbs []string
	}{
		{c.Family("transport", "conn", "send", "recv", "recvbytes", "recv-x", "recv.x"), []string{"send", "recv", "recvbytes", "recv-x", "recv.x"}},
		{c.Family("transport", "conn.recv", "x", "bytes"), []string{"x", "bytes"}},
		{c.Family("a", "b", "c"), []string{"c"}},
	}
	var scopes []string
	for i := 0; i < 1+rng.Intn(12); i++ {
		scopes = append(scopes, word(4))
	}
	scopes = append(scopes, "", "s1", "h:client->m:gram@17", "h:client->m:gram@170", "x.y@2", "x_y@1")
	for i := rng.Intn(60); i > 0; i-- {
		fam := fams[rng.Intn(len(fams))]
		ctrs := make([]Counter, len(fam.verbs))
		for v := range ctrs {
			ctrs[v].Add(rng.Int63n(5))
		}
		fam.f.Member(scopeName(scopes[rng.Intn(len(scopes))]), ctrs)
	}
	for i := rng.Intn(40); i > 0; i-- {
		var name string
		switch rng.Intn(4) {
		case 0: // a member's name, spelled out
			fam := fams[rng.Intn(len(fams))]
			name = fam.f.heads[rng.Intn(len(fam.verbs))]
			if s := scopes[rng.Intn(len(scopes))]; s != "" {
				name += "@" + s
			}
		case 1: // bases that collide once sanitized
			name = []string{"a.b", "a_b", "a-b", "a.b.c", "transport.conn.recv-x", "transport.conn.recv_x"}[rng.Intn(6)]
			if rng.Intn(2) == 0 {
				name += "@" + scopes[rng.Intn(len(scopes))]
			}
		default:
			name = word(6)
		}
		c.Add(name, rng.Int63n(1000)-100)
	}
	return c
}

// The streamed exposition writes what the snapshot path wrote, on
// registries built to find where the two could part.
func TestExpositionEqualsSnapshotPath(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		c := randomRegistry(rand.New(rand.NewSource(seed)), "")
		if got, want := streamed(t, c), oldPromCounters(c.Snapshot()); got != want {
			t.Fatalf("seed %d: the streamed exposition differs from the snapshot path's\nstreamed:\n%s\nsnapshot path:\n%s", seed, got, want)
		}
	}
}

func FuzzExposition(f *testing.F) {
	for _, frag := range []string{"", "@", "a.b", "é@\xff", `"\n`, "recv"} {
		f.Add(int64(len(frag)), frag)
	}
	f.Fuzz(func(t *testing.T, seed int64, frag string) {
		c := randomRegistry(rand.New(rand.NewSource(seed)), frag)
		if got, want := streamed(t, c), oldPromCounters(c.Snapshot()); got != want {
			t.Fatalf("the streamed exposition differs from the snapshot path's\nstreamed:\n%s\nsnapshot path:\n%s", got, want)
		}
	})
}

// Names that share a family and a scope are listed in name order, whether
// they are plain counters or a family's: '-' < '.' < '_' in recv-x, recv.x,
// recv_x.
func TestExpositionTiesInNameOrder(t *testing.T) {
	c := NewCounters()
	c.Add("a_b@s1", 2)
	c.Add("a.b@s1", 1)
	c.Add("a.b@s0", 5)
	c.Add("t.c.recv_x@s1", 30)
	fam := c.Family("t", "c", "recv.x", "recv-x")
	ctrs := []Counter{{10}, {20}}
	fam.Member(scopeName("s1"), ctrs)
	want := `# TYPE cogrid_a_b counter
cogrid_a_b{scope="s0"} 5
cogrid_a_b{scope="s1"} 1
cogrid_a_b{scope="s1"} 2
# TYPE cogrid_t_c_recv_x counter
cogrid_t_c_recv_x{scope="s1"} 20
cogrid_t_c_recv_x{scope="s1"} 10
cogrid_t_c_recv_x{scope="s1"} 30
`
	if got := streamed(t, c); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// A member keeps counting through &ctrs[i] after members join behind it,
// past the end of its chunk and into new ones.
func TestMemberCountsAcrossChunks(t *testing.T) {
	c := NewCounters()
	fam := c.Family("l", "o", "a", "b")
	var first, last *Counter
	for i := 0; i < 3*memberChunk+1; i++ {
		ctrs := make([]Counter, 2)
		fam.Member(scopeName("m"+strconv.Itoa(i)), ctrs)
		switch i {
		case 0:
			first = &ctrs[1]
		case memberChunk - 1:
			last = &ctrs[0]
		}
	}
	first.Add(7)
	last.Add(9)
	if got := c.Get("l.o.b@m0"); got != 7 {
		t.Errorf("the first member's count = %d after %d joined, want 7", got, 3*memberChunk)
	}
	if got := c.Get(fmt.Sprintf("l.o.a@m%d", memberChunk-1)); got != 9 {
		t.Errorf("the chunk's last member's count = %d, want 9", got)
	}
	if got := streamed(t, c); !strings.Contains(got, `cogrid_l_o_b{scope="m0"} 7`) || !strings.Contains(got, fmt.Sprintf(`cogrid_l_o_a{scope="m%d"} 9`, memberChunk-1)) {
		t.Error("the exposition lost a count made through a member's own counter")
	}
}

// BenchmarkCountersExposition streams the registry BenchmarkCountersSnapshot
// reads into the exposition writer, as grid.WriteMetrics does.
func BenchmarkCountersExposition(b *testing.B) {
	cs := benchRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain, fams := cs.Export()
		if err := metrics.WritePrometheus(io.Discard, metrics.PromSnapshot{Counters: plain, CounterFamilies: fams}); err != nil {
			b.Fatal(err)
		}
	}
}
