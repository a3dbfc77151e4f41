package wire

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// jsonStringSeeds are the strings where encoding/json's escaping has a
// rule of its own: the HTML set, the backslash and the quote, control
// bytes short and long, DEL, U+2028 and U+2029, a literal U+FFFD, invalid
// UTF-8 (a stray continuation byte, a truncated sequence, an encoded
// surrogate) and a DUROC multirequest.
var jsonStringSeeds = []string{
	"",
	`&<>"\`,
	"\x00\x01\b\t\n\v\f\r\x1b\x1f\x7f",
	"\u2028\u2029",
	"\u00e9\ufffd",
	"\xff",
	"ok\xe2\x80",
	"\xed\xa0\x80",
	"/",
	`+(&(resourceManagerContact="m01:gram")(count=8)(executable=a1)(subjobStartType=required))` +
		`(&(resourceManagerContact=m02:gram)(count=8)(executable=a1)(environment=(DUROC_TRACE "r1/s2")))`,
}

// sample has a field of every kind JSON visits.
type sample struct {
	S  string                `json:"s"`
	L  []string              `json:"l"`
	N  int                   `json:"n,omitempty"`
	D  time.Duration         `json:"d,omitempty"`
	B  bool                  `json:"b,omitempty"`
	M  map[int]time.Duration `json:"m,omitempty"`
	In *inner                `json:"-"`
	O  inner                 `json:"o"`
	OL []inner               `json:"ol,omitempty"`
	_  struct{}              `json:"-"`
}

type inner struct {
	X string `json:"x,omitempty"`
}

func (v *sample) json(j *JSON) {
	j.String("s", &v.S)
	j.Strings("l", &v.L)
	j.Int("n,omitempty", &v.N)
	j.Duration("d,omitempty", &v.D)
	j.Bool("b,omitempty", &v.B)
	j.DurationMap("m,omitempty", &v.M)
	JSONObject(j, "o", &v.O, (*inner).json)
	JSONList(j, "ol,omitempty", &v.OL, (*inner).json)
}

func (v *inner) json(j *JSON) { j.String("x,omitempty", &v.X) }

// agree checks that ParseJSON either declines src, leaving the target
// alone, or reads what json.Unmarshal reads from it into a zero sample.
func agree(t *testing.T, src []byte) {
	t.Helper()
	var got, want sample
	if !ParseJSON(src, &got, (*sample).json) {
		if !reflect.DeepEqual(got, sample{}) {
			t.Fatalf("declined %q but left %+v", src, got)
		}
		return
	}
	if err := json.Unmarshal(src, &want); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("read %q as %+v; json.Unmarshal: %+v, %v", src, got, want, err)
	}
}

// FuzzJSONString holds the primitives under every codec to encoding/json:
// AppendJSON writes json.Marshal's bytes for a value whose string fields
// are the input and whose integer fields are taken from it; ParseJSON
// takes them back as json.Unmarshal does; and on arbitrary input, alone or
// as one field's value, ParseJSON declines or agrees with json.Unmarshal,
// and never panics.
func FuzzJSONString(f *testing.F) {
	for _, s := range jsonStringSeeds {
		f.Add(s)
	}
	for _, s := range []string{
		`"\u003c"`, `"\/"`, `"\ud800"`, `"a` + "\x01" + `"`, `"\u00e9"`, `"\u2028"`, `"\u0008"`,
		"0", "-0", "01", "1.5", "1e3", "-", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809", "12345678901234567890",
		`null`, `[]`, `["a","b"]`, `[ "a"]`, `["a",]`, `[,"a"]`, `"`, `"\`, `"\u12`, `{"2":1,"10":2}`, `{}`,
		`{"s":"x","l":null,"o":{}}`, `{"s":"x","l":[],"m":{"-1":0},"o":{"x":"y"},"ol":[{},{"x":""}]}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n := int64(len(s))*-7 + 3
		v := sample{S: s, L: []string{s, "", s + "x"}, N: int(n), D: time.Duration(-n), B: n%2 == 0,
			M: map[int]time.Duration{int(n): time.Duration(n), 2: 1, 10: -1}, O: inner{X: s}, OL: []inner{{X: s}, {}}}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSON(nil, &v, (*sample).json); string(got) != string(want) {
			t.Fatalf("AppendJSON = %s\njson.Marshal = %s", got, want)
		}
		var back, ref sample
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatal(err)
		}
		if !ParseJSON(want, &back, (*sample).json) || !reflect.DeepEqual(back, ref) {
			t.Fatalf("ParseJSON(%s) = %+v, json.Unmarshal = %+v", want, back, ref)
		}

		agree(t, []byte(s))
		for _, field := range []string{`"s"`, `"l"`, `"n"`, `"d"`, `"b"`, `"m"`, `"o"`, `"ol"`} {
			agree(t, []byte(`{"s":"","l":null,`+field+`:`+s+`,"o":{}}`))
		}
	})
}

// read parses src into a struct of one int and one omitempty string.
func read(src string) (obj, bool) {
	var o obj
	return o, ParseJSON([]byte(src), &o, (*obj).json)
}

type obj struct {
	A int    `json:"a"`
	B string `json:"b,omitempty"`
}

func (o *obj) json(j *JSON) {
	j.Int("a", &o.A)
	j.String("b,omitempty", &o.B)
}

// TestJSONDeclines lists input that json.Unmarshal accepts, or would read
// into the struct, but that Marshal never writes: each is declined, so the
// caller falls back.
func TestJSONDeclines(t *testing.T) {
	for _, src := range []string{`{"a":1}`, `{"a":-12,"b":"x"}`, `{"a":0,"b":"\u0026"}`} {
		got, ok := read(src)
		var want obj
		if err := json.Unmarshal([]byte(src), &want); !ok || err != nil || got != want {
			t.Errorf("%s: read %+v (ok %t), want %+v", src, got, ok, want)
		}
	}
	for _, src := range []string{
		` {"a":1}`, `{"a": 1}`, `{"a":1} `, `{"a":1,}`, `{"b":"x","a":1}`, `{"A":1}`,
		`{"a":1,"c":2}`, `{"a":1,"b":null}`, `{"a":01}`, `{"a":-0}`, `{"a":+1}`,
		`{"a":1.0}`, `{"a":1e2}`, `{"a":"1"}`, `{"a":1,"b":"\/"}`, `{"a":1,"b":"<"}`,
		`{"a":1,"b":"\u0041"}`, `{"a":1,"b":"\u000a"}`, `{"a":1,"b":"\u003C"}`, `{"a":1,"b":"` + "\u2028" + `"}`,
		`{"a":1,"b":"` + "\xff" + `"}`, `{"a":1,"b":"` + "\t" + `"}`, `{"a":1`, `{"a"`, `{`, ``,
	} {
		if got, ok := read(src); ok {
			t.Errorf("%q: read %+v, want a decline", src, got)
		}
	}
}

// TestJSONIntRange: Int reads every int64 boundary exactly and declines
// one past it.
func TestJSONIntRange(t *testing.T) {
	for _, n := range []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64} {
		src := `{"a":` + strconv.FormatInt(n, 10) + `}`
		if got, ok := read(src); !ok || int64(got.A) != n {
			t.Errorf("%s: read %d (ok %t)", src, got.A, ok)
		}
	}
	for _, n := range []string{"9223372036854775808", "-9223372036854775809", "99999999999999999999"} {
		if got, ok := read(`{"a":` + n + `}`); ok {
			t.Errorf("%s: read %d, want a decline", n, got.A)
		}
	}
}

type frame struct {
	Kind   string `json:"kind"`
	Client string `json:"client"`
	Nonce  string `json:"nonce_c"`
}

func (f *frame) json(j *JSON) {
	j.String("kind", &f.Kind)
	j.String("client", &f.Client)
	j.String("nonce_c", &f.Nonce)
}

// TestJSONAllocations: the visitor costs nothing of its own. Writing into a
// buffer with room allocates nothing, and so does reading three strings,
// which are views of the input.
func TestJSONAllocations(t *testing.T) {
	f := frame{Kind: "gsi-hello", Client: "user/alice", Nonce: "0000002a0000001b"}
	buf := make([]byte, 0, 256)
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendJSON(buf[:0], &f, (*frame).json) }); allocs != 0 {
		t.Errorf("AppendJSON cost %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		var back frame
		if !ParseJSON(buf, &back, (*frame).json) || back != f {
			t.Fatalf("read %+v", back)
		}
	}); allocs != 0 {
		t.Errorf("ParseJSON of three strings cost %v allocations, want 0", allocs)
	}
}
