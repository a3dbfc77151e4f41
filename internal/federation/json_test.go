package federation

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"cogrid/internal/rpc"
	"cogrid/internal/transport"
	"cogrid/internal/vtime"
)

// checkJSONBody holds v's hand-written codec to encoding/json: AppendJSON
// writes json.Marshal's bytes, and ParseJSON of those bytes and of raw,
// into a zero target and into one that old returns, either agrees with
// json.Unmarshal or declines and leaves the target as it was. It never
// declines its own bytes into a zero target.
func checkJSONBody[T any, P interface {
	*T
	ParseJSON([]byte) bool
}](t *testing.T, v T, old func() T, raw []byte) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", v, err)
	}
	if got := any(v).(interface{ AppendJSON([]byte) []byte }).AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON wrote %s\njson.Marshal wrote %s", got, want)
	}
	zero := func() (z T) { return z }
	for i, in := range [][]byte{want, raw} {
		for j, start := range []func() T{zero, old} {
			got, ref := start(), start()
			refErr := json.Unmarshal(in, &ref)
			switch {
			case P(&got).ParseJSON(in):
				if refErr != nil || !reflect.DeepEqual(got, ref) {
					t.Fatalf("ParseJSON(%s) read %+v\njson.Unmarshal read %+v, %v", in, got, ref, refErr)
				}
			case i == 0 && j == 0:
				t.Fatalf("ParseJSON declined AppendJSON's own %s", in)
			case !reflect.DeepEqual(got, start()):
				t.Fatalf("ParseJSON declined %s but left %+v", in, got)
			}
		}
	}
}

// jsonSeeds are the strings and integers where encoding/json has a rule of
// its own: HTML escapes, control bytes, U+2028 and U+2029, non-ASCII and
// invalid UTF-8; the int64 extremes.
var (
	jsonStrings = []string{"", `&<>"\`, "\x00\x1f\b\f\n\r\t\x7f", "\xe2\x80\xa8\xe2\x80\xa9", "\xc3\xa9\xef\xbf\xbd", "\xff\xfe"}
	jsonInts    = []int64{math.MinInt64, math.MaxInt64, 0, 5, -6, 1 << 20}
)

// fuzzEntries builds nil, empty or two journal entries from s and n; n's
// bits choose which omitempty fields are set.
func fuzzEntries(s string, n int64) []Entry {
	switch n >> 10 & 3 {
	case 0:
		return nil
	case 1:
		return []Entry{}
	}
	e := Entry{Key: "t/" + s, Kind: "ticket", Origin: s, Owner: "fed01", State: StateOpen, Rev: int(n), At: time.Duration(n)}
	if n&1 != 0 {
		e.ReqKey, e.JobID, e.Committed = s+"k", s+"j", true
	}
	if n&2 != 0 {
		e.RM, e.Contact = s, s+":gram/1"
	}
	if n&4 != 0 {
		e.Seq, e.HandoffAt = int(-n), time.Duration(n>>1)
	}
	return []Entry{e, {Key: "o/" + s, Kind: "orphan", State: StateReaped}}
}

func fuzzShard(s string, n int64) ShardMap {
	m := ShardMap{Version: int(n), Epoch: int(n >> 2), Leader: s, VNodes: int(-n)}
	switch n >> 8 & 3 {
	case 1:
		m.Replicas = []string{}
	case 2, 3:
		m.Replicas = []string{s, "fed01", s + "2"}
	}
	return m
}

// FuzzJSONBody holds the heartbeat and append messages and their replies
// to encoding/json (see checkJSONBody).
func FuzzJSONBody(f *testing.F) {
	for _, s := range jsonStrings {
		for _, n := range jsonInts {
			f.Add(s, n, []byte(nil))
			f.Add(s, n|0xf07, []byte(nil))
			f.Add(s, n|0x507, []byte(nil))
		}
	}
	for _, raw := range []string{
		`{}`, `{"ack":-1,"epoch":3}`, `{"ack":2,"epoch":3,"updates":[]}`, `{"ack":2,"epoch":3,"updates":null}`,
		`{"entries":[{"key":"t/1","kind":"ticket","origin":"fed00","owner":"fed00","state":"open","rev":1,"at":5}]}`,
		`{"entries":[{"key":"t/1","kind":"ticket","origin":"fed00","owner":"fed00","committed":false,"state":"open","rev":1,"at":5}]}`,
		`{"from":"fed00","entries":null}`, `{"from":"fed00","entries":[]}`,
		`{"from":"fed00","epoch":2,"shard":{"version":1,"epoch":2,"leader":"fed00","replicas":["fed00","fed01"],"vnodes":64},"upd_start":0}`,
		`{"from":"fed00","epoch":2,"shard":{"version":1,"epoch":2,"leader":"fed00","replicas":null,"vnodes":64},"upd_start":0}`,
		`{"from":"fed00","epoch":2,"shard":{"epoch":2},"upd_start":0}`,
	} {
		f.Add("", int64(0), []byte(raw))
	}
	oldEntries := func() []Entry { return []Entry{{Key: "old", Kind: "old", State: "old", Rev: 9}} }
	f.Fuzz(func(t *testing.T, s string, n int64, raw []byte) {
		hb := heartbeatMsg{From: s, Epoch: int(n), Shard: fuzzShard(s, n), UpdStart: int(n >> 3), Updates: fuzzEntries(s, n)}
		checkJSONBody(t, hb, func() heartbeatMsg {
			return heartbeatMsg{From: "old", Epoch: 9, Shard: ShardMap{Leader: "old"}, UpdStart: 9}
		}, raw)
		checkJSONBody(t, hb, func() heartbeatMsg {
			return heartbeatMsg{Shard: ShardMap{Replicas: []string{"old"}}, Updates: oldEntries()}
		}, raw)
		checkJSONBody(t, heartbeatReply{Ack: int(n), Epoch: int(-n), Updates: fuzzEntries(s, ^n)},
			func() heartbeatReply { return heartbeatReply{Ack: 9, Epoch: 9} }, raw)
		checkJSONBody(t, appendMsg{From: s, Entries: fuzzEntries(s, n)},
			func() appendMsg { return appendMsg{From: "old", Entries: oldEntries()} }, raw)
		checkJSONBody(t, appendReply{Entries: fuzzEntries(s+"r", n)},
			func() appendReply { return appendReply{Entries: oldEntries()} }, raw)
	})
}

// rawBody is a reply body written as given.
type rawBody string

func (b rawBody) AppendJSON(dst []byte) []byte { return append(dst, b...) }

// TestPeerCallDecodesOnce: a peer's reply is decoded once, by the hand-written
// codec where it applies, and a body that does not decode is an error with a
// zero reply, not a half-filled one.
func TestPeerCallDecodesOnce(t *testing.T) {
	sim := vtime.New()
	net := transport.New(sim, transport.UniformLatency(time.Millisecond))
	a, b := net.AddHost("fed00"), net.AddHost("fed01")
	l, err := b.Listen(serviceName)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	rpc.Serve(sim, l, rpc.HandlerFuncs{Call: func(_ *rpc.ServerConn, method string, _ json.RawMessage) (any, error) {
		if method == "bad" {
			return rawBody(`{"ack":"one","epoch":5}`), nil // json.Unmarshal fills epoch, then fails
		}
		return heartbeatReply{Ack: 4, Epoch: 2, Updates: []Entry{{Key: "t/1", Kind: "ticket", State: StateOpen, Rev: 1}}}, nil
	}}, nil)
	inc := &incarnation{r: &Replica{fed: &Federation{sim: sim}, name: "fed00", host: a}}
	err = sim.Run("caller", func() {
		reply, err := peerCall[heartbeatReply](inc, "fed01", "heartbeat", nil)
		want := heartbeatReply{Ack: 4, Epoch: 2, Updates: []Entry{{Key: "t/1", Kind: "ticket", State: StateOpen, Rev: 1}}}
		if err != nil || !reflect.DeepEqual(reply, want) {
			t.Errorf("heartbeat: %+v, %v; want %+v", reply, err, want)
		}
		if reply, err := peerCall[heartbeatReply](inc, "fed01", "bad", nil); err == nil || !reflect.DeepEqual(reply, heartbeatReply{}) {
			t.Errorf("invalid body: %+v, %v; want a zero reply and an error", reply, err)
		}
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
}
