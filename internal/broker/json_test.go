package broker

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
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

// FuzzJSONBody holds Request and Reply to encoding/json (see
// checkJSONBody).
func FuzzJSONBody(f *testing.F) {
	for _, s := range jsonStrings {
		for _, n := range jsonInts {
			f.Add(s, n, []byte(nil))
		}
	}
	for _, raw := range []string{
		`{}`, `{"accepted":false}`, `{"accepted":true,"job_id":"j1","attempts":1,"world_size":8,"elapsed":1000}`,
		`{"accepted":true,"error":"no"}`, `{"accepted":1}`, `{"accepted":true,"retry_after":0}`,
		`{"tenant":"t","sites":2,"procs_per_site":4,"executable":"a"}`,
		`{"tenant":"t","sites":2,"procs_per_site":4,"executable":"a","key":"k","origin":"fed00","hops":1,"view_as_of":9}`,
		`{"tenant":"t","procs_per_site":4,"sites":2,"executable":"a"}`,
	} {
		f.Add("", int64(0), []byte(raw))
	}
	f.Fuzz(func(t *testing.T, s string, n int64, raw []byte) {
		// n's bits choose which omitempty fields are set.
		set := func(bit uint, v int64) int64 { return v * (n >> bit & 1) }
		str := func(bit uint, v string) string {
			if n>>bit&1 == 0 {
				return ""
			}
			return v
		}
		req := Request{Tenant: s, Sites: int(n), ProcsPerSite: int(n >> 3), Executable: s + "x",
			Spares: int(set(0, n)), CommitTimeout: time.Duration(set(1, n)), StartupTimeout: time.Duration(set(2, -n)),
			MaxTime: time.Duration(set(3, n>>1)), Deadline: time.Duration(set(4, n)), Key: str(5, s+"k"),
			Origin: str(6, "fed01"), Hops: int(set(7, 2)), ViewAsOf: time.Duration(set(8, n))}
		checkJSONBody(t, req, func() Request {
			return Request{Tenant: "old", Sites: 1, ProcsPerSite: 1, Executable: "old", Spares: 1, CommitTimeout: 1,
				StartupTimeout: 1, MaxTime: 1, Deadline: 1, Key: "old", Origin: "old", Hops: 1, ViewAsOf: 1}
		}, raw)
		rep := Reply{Accepted: n&1 != 0, RetryAfter: time.Duration(set(1, n)), JobID: str(2, s), Attempts: int(set(3, n)),
			Substitutions: int(set(4, n>>2)), WorldSize: int(set(5, 64)), QueueWait: time.Duration(set(6, -n)),
			Elapsed: time.Duration(set(7, n)), Hops: int(set(8, 1)), Error: str(9, s+"e")}
		checkJSONBody(t, rep, func() Reply {
			return Reply{Accepted: true, RetryAfter: 1, JobID: "old", Attempts: 1, Substitutions: 1, WorldSize: 1,
				QueueWait: 1, Elapsed: 1, Hops: 1, Error: "old"}
		}, raw)
	})
}
