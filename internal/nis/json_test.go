package nis

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
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

// FuzzJSONBody holds lookupArgs and lookupReply to encoding/json (see
// checkJSONBody).
func FuzzJSONBody(f *testing.F) {
	for _, s := range jsonStrings {
		for _, n := range jsonInts {
			f.Add(s, n, []byte(nil))
		}
	}
	for _, raw := range []string{
		`{}`, `{"user":"alice"}`, `{"groups":null}`, `{"groups":[]}`, `{"groups":["a","b"]}`, `{"groups":["a" ,"b"]}`,
	} {
		f.Add("", int64(0), []byte(raw))
	}
	f.Fuzz(func(t *testing.T, s string, n int64, raw []byte) {
		checkJSONBody(t, lookupArgs{User: s}, func() lookupArgs { return lookupArgs{User: "old"} }, raw)
		var rep lookupReply
		switch n & 3 {
		case 1:
			rep.Groups = []string{}
		case 2, 3:
			rep.Groups = []string{s, "users", s + s}
		}
		checkJSONBody(t, rep, func() lookupReply { return lookupReply{Groups: []string{"old"}} }, raw)
	})
}
