package core_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"cogrid/internal/core"
	"cogrid/internal/lrm"
	"cogrid/internal/wire"
)

// wideConfig is a committed configuration of n subjobs × m processes.
func wideConfig(n, m int) core.Config {
	cfg := core.Config{NSubjobs: n, WorldSize: n * m}
	var labels, book []string
	for s := 0; s < n; s++ {
		cfg.SubjobSizes = append(cfg.SubjobSizes, m)
		labels = append(labels, fmt.Sprintf("site%d", s))
		for r := 0; r < m; r++ {
			book = append(book, fmt.Sprintf("machine%02d:app.client0_coalloc12.site%d.%d", s, s, r))
		}
	}
	cfg.SetSubjobLabels(labels)
	cfg.SetAddressBook(book)
	return cfg
}

// eagerParse is CheckinReply.ParseWire as it was while Config's lists were
// fields: everything decoded on arrival, every label and address a
// substring of one copy of the body. It is the oracle the parser that
// validates now and decodes on demand is compared with.
func eagerParse(p *core.CheckinReply, src []byte) error {
	r := wire.NewReader(src)
	strs := func() []string {
		n := r.Len()
		if n == 0 {
			return nil
		}
		list := make([]string, n)
		for i := range list {
			list[i] = r.String()
		}
		return list
	}
	*p = core.CheckinReply{Proceed: r.Uvarint() != 0, Reason: r.String()}
	cfg := &p.Config
	cfg.MySubjob = r.Int()
	cfg.MyRank = r.Int()
	cfg.NSubjobs = r.Int()
	if n := r.Len(); n > 0 {
		cfg.SubjobSizes = make([]int, n)
		for i := range cfg.SubjobSizes {
			cfg.SubjobSizes[i] = r.Int()
		}
	}
	cfg.SetSubjobLabels(strs())
	cfg.WorldSize = r.Int()
	cfg.SetAddressBook(strs())
	if err := r.Done(); err != nil {
		*p = core.CheckinReply{}
		return err
	}
	return nil
}

func sampleArgs() []core.CheckinArgs {
	return []core.CheckinArgs{
		{},
		{Job: "workstation/coalloc1", Subjob: "m1", Rank: 3, OK: true, Addr: "m1:app.workstation_coalloc1.m1.3"},
		{Job: "j", Subjob: "s", Rank: -1, OK: false, Msg: "local library check failed"},
	}
}

func sampleReplies() []core.CheckinReply {
	late := core.NewRelease(wideConfig(2, 3)).Reply(-1, -1)
	return []core.CheckinReply{
		{},
		{Proceed: false, Reason: "required subjob \"m2\" failed: startup timeout after 10m0s"},
		{Proceed: true, Config: wideConfig(1, 1)},
		core.NewRelease(wideConfig(8, 8)).Reply(5, 43),
		late,
	}
}

// sameConfig compares what a reader can see of two configurations, in
// whichever form each holds its lists, through every accessor.
func sameConfig(a, b core.Config) bool {
	if a.NSubjobs != b.NSubjobs || a.WorldSize != b.WorldSize || a.MySubjob != b.MySubjob || a.MyRank != b.MyRank ||
		!reflect.DeepEqual(a.SubjobSizes, b.SubjobSizes) ||
		!reflect.DeepEqual(a.SubjobLabels(), b.SubjobLabels()) || !reflect.DeepEqual(a.AddressBook(), b.AddressBook()) {
		return false
	}
	labels, book := b.SubjobLabels(), b.AddressBook()
	for i := -1; i <= len(labels); i++ {
		got, ok := a.SubjobLabel(i)
		if inside := i >= 0 && i < len(labels); ok != inside || inside && got != labels[i] || !inside && got != "" {
			return false
		}
	}
	for i := -1; i <= len(book); i++ {
		got, ok := a.Address(i)
		if inside := i >= 0 && i < len(book); ok != inside || inside && got != book[i] || !inside && got != "" {
			return false
		}
	}
	return true
}

// sameReply compares what a receiver can see of two replies.
func sameReply(a, b core.CheckinReply) bool {
	return a.Proceed == b.Proceed && a.Reason == b.Reason && sameConfig(a.Config, b.Config)
}

func TestCheckinBodyRoundTrip(t *testing.T) {
	for _, a := range sampleArgs() {
		var got core.CheckinArgs
		if err := got.ParseWire(a.AppendWire(nil)); err != nil || got != a {
			t.Errorf("args %+v came back as %+v, %v", a, got, err)
		}
	}
	for _, p := range sampleReplies() {
		body := p.AppendWire(nil)
		var got core.CheckinReply
		if err := got.ParseWire(body); err != nil || !sameReply(got, p) {
			t.Errorf("reply %+v came back as %+v, %v", p, got, err)
		}
		// The encode-once form and the encode-per-reply form are the same
		// bytes: a receiver cannot tell which one the sender used.
		plain := core.CheckinReply{Proceed: p.Proceed, Reason: p.Reason, Config: p.Config}
		if !bytes.Equal(body, plain.AppendWire(nil)) {
			t.Errorf("reply %+v: shared and unshared encodings differ", p)
		}
		for n := 0; n < len(body); n++ {
			if err := got.ParseWire(body[:n]); !errors.Is(err, wire.ErrFrame) {
				t.Fatalf("reply truncated to %d of %d bytes: err = %v, want ErrFrame", n, len(body), err)
			}
		}
	}
	// A list count no remaining bytes can back is malformed, not a reason
	// to allocate: proceed, reason "", MySubjob, MyRank, NSubjobs, then a
	// sizes count of 2⁴⁰.
	hostile := wire.AppendUvarint([]byte{1, 0, 0, 0, 0}, 1<<40)
	var got core.CheckinReply
	if err := got.ParseWire(hostile); !errors.Is(err, wire.ErrFrame) {
		t.Errorf("over-long count: err = %v, want ErrFrame", err)
	}
}

// FuzzCheckinBody feeds arbitrary bytes to both parsers: they never panic,
// and whatever parses survives Append then Parse unchanged. The reply's
// parser is also held against eagerParse: both accept or both reject, and
// what the accessors of an accepted reply answer is what eager decoding
// found.
func FuzzCheckinBody(f *testing.F) {
	for _, a := range sampleArgs() {
		f.Add(a.AppendWire(nil))
	}
	for _, p := range sampleReplies() {
		body := p.AppendWire(nil)
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x80}, 32))
	f.Add(wire.AppendUvarint([]byte{1, 0, 0, 0, 0}, 1<<40))
	f.Add(wire.AppendUvarint([]byte{1}, 1<<62))
	// proceed, reason "", MySubjob, MyRank, NSubjobs, no sizes, then: a label
	// count of 2⁴⁰; and no labels, WorldSize, a book of two whose second
	// length overruns what is left.
	f.Add(wire.AppendUvarint([]byte{1, 0, 0, 0, 0, 0}, 1<<40))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 4, 2, 1, 'a', 9, 'b', 'c'})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p, eager core.CheckinReply
		err, eagerErr := p.ParseWire(data), eagerParse(&eager, data)
		if (err == nil) != (eagerErr == nil) {
			t.Fatalf("reply parse: %v, eager parse: %v", err, eagerErr)
		}
		if err != nil {
			if !errors.Is(err, wire.ErrFrame) {
				t.Fatalf("reply parse error %v is not ErrFrame", err)
			}
			if !reflect.DeepEqual(p, core.CheckinReply{}) {
				t.Fatalf("failed parse left the reply populated: %+v", p)
			}
		} else {
			if !sameReply(p, eager) {
				t.Fatalf("reply reads as %+v, eager decoding found %+v", p, eager)
			}
			body := p.AppendWire(nil)
			var again core.CheckinReply
			if err := again.ParseWire(body); err != nil || !sameReply(again, p) {
				t.Fatalf("reply not a round-trip fixpoint: %+v then %+v, %v", p, again, err)
			}
			if !bytes.Equal(again.AppendWire(nil), body) {
				t.Fatalf("reply %+v: a second Append of what the first one wrote differs", p)
			}
		}
		var a core.CheckinArgs
		if err := a.ParseWire(data); err != nil {
			if !errors.Is(err, wire.ErrFrame) || a != (core.CheckinArgs{}) {
				t.Fatalf("args parse: err %v, left %+v", err, a)
			}
		} else {
			var again core.CheckinArgs
			if err := again.ParseWire(a.AppendWire(nil)); err != nil || again != a {
				t.Fatalf("args not a round-trip fixpoint: %+v then %+v, %v", a, again, err)
			}
		}
	})
}

// allocated reports what one call of f allocates, as counts and bytes
// averaged over runs.
func allocated(runs int, f func()) (allocs, bytes float64) {
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestCheckinReplyParseAllocs holds the receive side of a release to a
// constant: validating a reply allocates its subjob sizes and nothing that
// grows with the address book, one address costs its string, and the whole
// book one copy and one slice. Sixty-four of these parses run per
// co-allocation, and none of its processes reads more than a few addresses.
func TestCheckinReplyParseAllocs(t *testing.T) {
	body := core.NewRelease(wideConfig(8, 8)).Reply(3, 27).AppendWire(nil)
	long := core.NewRelease(wideConfig(8, 128)).Reply(3, 27).AppendWire(nil)
	var p core.CheckinReply
	parse := func(body []byte) func() {
		return func() {
			if err := p.ParseWire(body); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs, size := allocated(200, parse(body))
	if allocs > 1 {
		t.Errorf("parsing a 64-entry reply allocated %v times, want at most 1", allocs)
	}
	if longAllocs, longSize := allocated(200, parse(long)); longAllocs != allocs || longSize != size {
		t.Errorf("a 1024-entry reply costs %v allocations and %v bytes to parse, a 64-entry reply %v and %v: want the same",
			longAllocs, longSize, allocs, size)
	}
	parse(body)()
	cfg := p.Config
	if got := testing.AllocsPerRun(100, func() {
		if addr, ok := cfg.Address(27); !ok || addr != "machine03:app.client0_coalloc12.site3.3" {
			t.Fatalf("Address(27) = %q, %v", addr, ok)
		}
	}); got > 1 {
		t.Errorf("one address allocated %v times, want at most 1", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if len(cfg.AddressBook()) != 64 {
			t.Fatal("short address book")
		}
	}); got > 2 {
		t.Errorf("the whole address book allocated %v times, want at most 2", got)
	}
	if cfg.MyRank != 27 || !sameConfig(cfg, core.NewRelease(wideConfig(8, 8)).Reply(3, 27).Config) {
		t.Errorf("parsed config = %+v", cfg)
	}
}

// BenchmarkReleaseEveryRankReadsAll is the workload on the other side of
// decoding on demand: all 64 ranks of a release parse their reply and then
// read the whole address book, which eager decoding had ready. The two
// sub-benchmarks must stay level, in time and in bytes.
func BenchmarkReleaseEveryRankReadsAll(b *testing.B) {
	rel := core.NewRelease(wideConfig(8, 8))
	var bodies [][]byte
	for rank := 0; rank < 64; rank++ {
		bodies = append(bodies, rel.Reply(rank/8, rank).AppendWire(nil))
	}
	run := func(parse func(*core.CheckinReply, []byte) error) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, body := range bodies {
					var p core.CheckinReply
					if err := parse(&p, body); err != nil {
						b.Fatal(err)
					}
					for _, addr := range p.Config.AddressBook() {
						benchSink += len(addr)
					}
				}
			}
		}
	}
	b.Run("eager", run(eagerParse))
	b.Run("on-demand", run((*core.CheckinReply).ParseWire))
}

var benchSink int

// TestReleaseEncodesOnce answers the sixteen check-ins of a 4 × 4 job at
// the controller's barrier service and requires every reply to append the
// very same bytes — one backing array, so the commit encoded its address
// book once, not sixteen times.
func TestReleaseEncodesOnce(t *testing.T) {
	machines := []string{"m1", "m2", "m3", "m4"}
	rig := newRig(t, machines...)
	// The real processes only hold their processors; the test plays their
	// check-ins, so it sees the replies before they are encoded.
	rig.g.RegisterEverywhere("idle", func(p *lrm.Proc) error { return p.Sleep(time.Hour) })
	var replies []core.CheckinReply
	err := rig.g.Sim.Run("agent", func() {
		var req core.Request
		for _, m := range machines {
			spec := rig.spec(m, 4, core.Required)
			spec.Executable = "idle"
			req.Subjobs = append(req.Subjobs, spec)
		}
		job, err := rig.ctrl.Submit(req)
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		rig.g.Sim.Sleep(time.Minute) // every subjob submitted and active
		for _, m := range machines {
			for r := 0; r < 4; r++ {
				args := core.CheckinArgs{Job: job.ID(), Subjob: m, Rank: r, OK: true, Addr: fmt.Sprintf("%s:fake.%d", m, r)}
				rig.ctrl.Checkin(args, func(p core.CheckinReply) { replies = append(replies, p) })
			}
		}
		if _, err := job.Commit(time.Minute); err != nil {
			t.Errorf("Commit: %v", err)
		}
		rig.g.Sim.Sleep(time.Second)
		job.Kill()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if len(replies) != 16 {
		t.Fatalf("%d replies, want 16", len(replies))
	}
	first := core.SharedWire(replies[0])
	if len(first) == 0 {
		t.Fatal("reply carries no release encoding")
	}
	ranks := map[int]bool{}
	for _, p := range replies {
		shared := core.SharedWire(p)
		if len(shared) != len(first) || &shared[0] != &first[0] {
			t.Fatalf("rank %d's reply has its own encoding of the configuration", p.Config.MyRank)
		}
		if body := p.AppendWire(nil); !bytes.HasSuffix(body, first) {
			t.Errorf("rank %d's body does not end in the shared region", p.Config.MyRank)
		}
		ranks[p.Config.MyRank] = true
	}
	if len(ranks) != 16 {
		t.Errorf("distinct ranks = %d, want 16", len(ranks))
	}
}

// TestGoldenConfig pins what the six processes of one fixed 2 × 3 request
// are told, field for field — the Config applications saw before the
// check-in reply had a typed body.
func TestGoldenConfig(t *testing.T) {
	rig := newRig(t, "m1", "m2")
	err := rig.g.Sim.Run("agent", func() {
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{
			rig.spec("m1", 3, core.Required),
			rig.spec("m2", 3, core.Required),
		}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	got := rig.proceeded
	sort.Slice(got, func(a, b int) bool { return got[a].MyRank < got[b].MyRank })
	if len(got) != 6 {
		t.Fatalf("%d processes proceeded, want 6", len(got))
	}
	labels := []string{"m1", "m2"}
	book := []string{
		"m1:app.workstation_coalloc1.m1.0", "m1:app.workstation_coalloc1.m1.1", "m1:app.workstation_coalloc1.m1.2",
		"m2:app.workstation_coalloc1.m2.0", "m2:app.workstation_coalloc1.m2.1", "m2:app.workstation_coalloc1.m2.2",
	}
	for rank, cfg := range got {
		want := core.Config{NSubjobs: 2, SubjobSizes: []int{3, 3}, WorldSize: 6, MySubjob: rank / 3, MyRank: rank}
		want.SetSubjobLabels(labels)
		want.SetAddressBook(book)
		if !sameConfig(cfg, want) {
			t.Errorf("rank %d was told %+v, want %+v", rank, cfg, want)
		}
		// The JSON form, which a JSON-codec peer is sent and a foreign client
		// reads, is what it was when the lists were fields — from a Config
		// that arrived in the typed form and holds no []string at all.
		wantJSON := fmt.Sprintf(`{"n_subjobs":2,"subjob_sizes":[3,3],"subjob_labels":["m1","m2"],"world_size":6,`+
			`"address_book":["m1:app.workstation_coalloc1.m1.0","m1:app.workstation_coalloc1.m1.1","m1:app.workstation_coalloc1.m1.2",`+
			`"m2:app.workstation_coalloc1.m2.0","m2:app.workstation_coalloc1.m2.1","m2:app.workstation_coalloc1.m2.2"],`+
			`"my_subjob":%d,"my_rank":%d}`, rank/3, rank)
		js, err := json.Marshal(cfg)
		if err != nil || string(js) != wantJSON {
			t.Errorf("rank %d's config as JSON: %s, %v\nwant %s", rank, js, err, wantJSON)
		}
		var back core.Config
		if err := json.Unmarshal(js, &back); err != nil || !sameConfig(back, want) {
			t.Errorf("rank %d's config back from JSON: %+v, %v", rank, back, err)
		}
	}
}

// TestConfigJSONForm pins the corners of the JSON form: empty lists are
// null, as nil slices always were; decoding merges into what is there, as
// the decoding of a struct does; and the reply around a Config carries it
// under "config" in both directions.
func TestConfigJSONForm(t *testing.T) {
	js, err := json.Marshal(core.CheckinReply{Proceed: true})
	want := `{"proceed":true,"config":{"n_subjobs":0,"subjob_sizes":null,"subjob_labels":null,"world_size":0,"address_book":null,"my_subjob":0,"my_rank":0}}`
	if err != nil || string(js) != want {
		t.Errorf("empty proceed reply as JSON: %s, %v\nwant %s", js, err, want)
	}
	var parsed core.CheckinReply
	if err := parsed.ParseWire(core.CheckinReply{Proceed: true}.AppendWire(nil)); err != nil {
		t.Fatal(err)
	}
	if js, err := json.Marshal(parsed); err != nil || string(js) != want {
		t.Errorf("empty proceed reply, received, as JSON: %s, %v\nwant %s", js, err, want)
	}
	cfg := wideConfig(2, 2)
	cfg.MyRank = 3
	if err := json.Unmarshal([]byte(`{"world_size":5,"address_book":["a:b"]}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.WorldSize != 5 || cfg.MyRank != 3 || cfg.NSubjobs != 2 ||
		!reflect.DeepEqual(cfg.AddressBook(), []string{"a:b"}) || !reflect.DeepEqual(cfg.SubjobLabels(), []string{"site0", "site1"}) {
		t.Errorf("partial JSON merged into %+v", cfg)
	}
	var reply core.CheckinReply
	full := core.NewRelease(wideConfig(2, 3)).Reply(1, 4)
	js, err = json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(js, &reply); err != nil || !sameReply(reply, full) {
		t.Errorf("reply through JSON: %+v, %v", reply, err)
	}
}

// TestConfigOutlivesItsConnection: a received Config decodes its lists out
// of the reply's frame whenever it is asked, so the frame must stay what it
// was after the connection that delivered it has closed, after the same two
// hosts have exchanged a thousand further messages, and across a
// collection.
func TestConfigOutlivesItsConnection(t *testing.T) {
	rig := newRig(t, "m1", "m2")
	var kept []*core.Config
	rig.g.RegisterEverywhere("keeper", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		cfg, err := rt.Barrier(true, "", 0) // dials, checks in, closes
		if err != nil {
			return err
		}
		rig.mu.Lock()
		kept = append(kept, cfg)
		rig.mu.Unlock()
		if cfg.MyRank != 0 {
			// Every other rank tells rank 0 a thousand things, over the host pair
			// (and, from m1, the very host) the release arrived on.
			conn, err := rt.DialRank(0)
			if err != nil {
				return err
			}
			defer conn.Close()
			for i := 0; i < 1000; i++ {
				if err := conn.Send(bytes.Repeat([]byte{0xAA}, 2600)); err != nil {
					return err
				}
			}
			return nil
		}
		for peers := 0; peers < cfg.WorldSize-1; peers++ {
			conn, ok := rt.Listener().Accept()
			if !ok {
				return errors.New("listener closed")
			}
			for {
				if _, err := conn.Recv(); err != nil {
					break
				}
			}
		}
		return nil
	})
	err := rig.g.Sim.Run("agent", func() {
		m1, m2 := rig.spec("m1", 2, core.Required), rig.spec("m2", 2, core.Required)
		m1.Executable, m2.Executable = "keeper", "keeper"
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{m1, m2}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
		}
		job.Done().Wait()
		if job.Err() != "" {
			t.Errorf("job error: %s", job.Err())
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	runtime.GC()
	if len(kept) != 4 {
		t.Fatalf("%d configs kept, want 4", len(kept))
	}
	want := []string{"m1:app.workstation_coalloc1.m1.0", "m1:app.workstation_coalloc1.m1.1", "m2:app.workstation_coalloc1.m2.0", "m2:app.workstation_coalloc1.m2.1"}
	for _, cfg := range kept {
		if !reflect.DeepEqual(cfg.AddressBook(), want) || !reflect.DeepEqual(cfg.SubjobLabels(), []string{"m1", "m2"}) {
			t.Errorf("rank %d's config reads %q, %q after its connection", cfg.MyRank, cfg.SubjobLabels(), cfg.AddressBook())
		}
		for rank, addr := range want {
			if got, ok := cfg.Address(rank); !ok || got != addr {
				t.Errorf("rank %d's Address(%d) = %q, %v", cfg.MyRank, rank, got, ok)
			}
		}
	}
}

// staggeredRig registers "staggered": rank r checks in (r+1)·100 ms after
// it starts, so every rank's barrier wait is different.
func staggeredRig(t *testing.T, machines ...string) *testRig {
	rig := newRig(t, machines...)
	rig.g.RegisterEverywhere("staggered", func(p *lrm.Proc) error {
		rt, err := core.Attach(p)
		if err != nil {
			return err
		}
		defer rt.Close()
		if err := p.Sleep(time.Duration(p.Rank+1) * 100 * time.Millisecond); err != nil {
			return err
		}
		if _, err := rt.Barrier(true, "", 0); err != nil {
			rig.mu.Lock()
			rig.abortMsgs = append(rig.abortMsgs, err.Error())
			rig.mu.Unlock()
			return nil
		}
		return p.Work(time.Second, time.Second)
	})
	rig.g.RegisterEverywhere("idle", func(p *lrm.Proc) error { return p.Sleep(time.Hour) })
	return rig
}

// TestReleaseDropsWaitersAndOrdersWaits: a released job stays in
// Controller.Jobs for the audit but holds no waiter (each pins a reply
// channel), and BarrierWaits lists ranks in (subjob, rank) order on every
// run rather than in map-iteration order.
func TestReleaseDropsWaitersAndOrdersWaits(t *testing.T) {
	rig := staggeredRig(t, "m1", "m2")
	var job *core.Job
	err := rig.g.Sim.Run("agent", func() {
		specs := []core.SubjobSpec{rig.spec("m1", 4, core.Required), rig.spec("m2", 4, core.Required)}
		for i := range specs {
			specs[i].Executable = "staggered"
		}
		var err error
		if job, err = rig.ctrl.Submit(core.Request{Subjobs: specs}); err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		if _, err := job.Commit(0); err != nil {
			t.Errorf("Commit: %v", err)
		}
		if n := job.Waiters(); n != 0 {
			t.Errorf("released job still holds %d barrier waiters", n)
		}
		job.Done().Wait()
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	waits := job.BarrierWaits()
	if len(waits) != 8 {
		t.Fatalf("%d barrier waits, want 8", len(waits))
	}
	for sj := 0; sj < 2; sj++ {
		for r := 1; r < 4; r++ {
			// Rank r checked in 100 ms after rank r-1 and left with it.
			if d := waits[sj*4+r-1] - waits[sj*4+r]; d != 100*time.Millisecond {
				t.Fatalf("waits %v are not in (subjob, rank) order", waits)
			}
		}
	}
}

// TestDiscardDropsWaiters aborts a job whose first subjob is waiting in
// the barrier: the waiters are answered and forgotten.
func TestDiscardDropsWaiters(t *testing.T) {
	rig := staggeredRig(t, "m1", "m2")
	err := rig.g.Sim.Run("agent", func() {
		waiting, never := rig.spec("m1", 4, core.Required), rig.spec("m2", 4, core.Required)
		waiting.Executable, never.Executable = "staggered", "idle"
		job, err := rig.ctrl.Submit(core.Request{Subjobs: []core.SubjobSpec{waiting, never}})
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		rig.g.Sim.Sleep(time.Minute)
		if n := job.Waiters(); n != 4 {
			t.Errorf("%d waiters in the barrier before the abort, want 4", n)
		}
		job.Abort("agent gave up")
		if n := job.Waiters(); n != 0 {
			t.Errorf("aborted job still holds %d barrier waiters", n)
		}
		job.Done().Wait()
		// The kernel stops when this function returns; let the four abort
		// replies arrive first.
		rig.g.Sim.Sleep(time.Minute)
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if len(rig.abortMsgs) != 4 {
		t.Errorf("%d processes saw the abort, want 4: %q", len(rig.abortMsgs), rig.abortMsgs)
	}
}
