package gsi

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// checkJSONBody holds v's hand-written codec to encoding/json: AppendJSON
// writes json.Marshal's bytes, and parse of those bytes and of raw either
// agrees with json.Unmarshal into a zero frame or declines. It never
// declines its own bytes.
func checkJSONBody[T frame[T]](t *testing.T, v T, raw []byte) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%+v): %v", v, err)
	}
	if got := v.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON wrote %s\njson.Marshal wrote %s", got, want)
	}
	for i, in := range [][]byte{want, raw} {
		var zero, ref T
		refErr := json.Unmarshal(in, &ref)
		switch got, ok := zero.parse(in); {
		case ok:
			if refErr != nil || !reflect.DeepEqual(got, ref) {
				t.Fatalf("parse(%s) read %+v\njson.Unmarshal read %+v, %v", in, got, ref, refErr)
			}
		case i == 0:
			t.Fatalf("parse declined AppendJSON's own %s", in)
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

// FuzzJSONBody holds the four handshake frames to encoding/json (see
// checkJSONBody).
func FuzzJSONBody(f *testing.F) {
	for _, s := range jsonStrings {
		for _, n := range jsonInts {
			f.Add(s, n, []byte(nil))
		}
	}
	for _, raw := range []string{
		`{}`, `{"kind":"gsi-hello","client":"user/alice","nonce_c":"00"}`,
		`{"kind":"gsi-challenge","server":"host/b","nonce_s":"00","proof_s":"ab"}`,
		`{"kind":"gsi-result","server":"host/b","nonce_s":"00","proof_s":"ab"}`,
		`{"kind":"gsi-response","proof_c":"ab"}`, `{"kind":"gsi-result","ok":true}`,
		`{"kind":"gsi-result","ok":false,"error":"gsi: credential revoked"}`, `{"kind":"gsi-result","ok":false,"error":""}`,
		`{"ok":false,"kind":"gsi-result"}`,
	} {
		f.Add("", int64(0), []byte(raw))
	}
	f.Fuzz(func(t *testing.T, s string, n int64, raw []byte) {
		checkJSONBody(t, helloMsg{Kind: s, Client: s + "c", NonceC: s + "n"}, raw)
		checkJSONBody(t, challengeMsg{Kind: s, Server: s + "s", NonceS: s, ProofS: s + "p"}, raw)
		checkJSONBody(t, responseMsg{Kind: s, ProofC: s + "p"}, raw)
		res := resultMsg{Kind: s, OK: n&1 != 0}
		if n&2 != 0 {
			res.Error = s + "e"
		}
		checkJSONBody(t, res, raw)
	})
}
