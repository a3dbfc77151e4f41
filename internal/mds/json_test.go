package mds

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

// fuzzRecord builds a record from s and n; n's low bits choose nil, empty
// or populated forecasts.
func fuzzRecord(s string, n int64) Record {
	rec := Record{Name: s, Contact: s + ":gram", Processors: int(n), Mode: s, FreeProcessors: int(n >> 1),
		RunningJobs: int(-n), QueuedJobs: int(n >> 7), UpdatedAt: time.Duration(n)}
	switch n & 3 {
	case 1:
		rec.ForecastWait = map[int]time.Duration{}
	case 2, 3:
		rec.ForecastWait = map[int]time.Duration{int(n): time.Duration(n), 2: 10, 16: -1, -3: time.Duration(n >> 3), 100: 0}
	}
	return rec
}

func oldRecord() Record {
	return Record{Name: "old", Contact: "old:gram", Processors: 9, Mode: "fork", FreeProcessors: 9,
		RunningJobs: 9, QueuedJobs: 9, ForecastWait: map[int]time.Duration{1: 1, 2: 2}, UpdatedAt: 9}
}

// FuzzJSONBody holds Record, Filter and a query's reply to encoding/json
// (see checkJSONBody).
func FuzzJSONBody(f *testing.F) {
	for _, s := range jsonStrings {
		for _, n := range jsonInts {
			f.Add(s, n, []byte(nil))
		}
	}
	for _, raw := range []string{
		`null`, `[]`, `{}`, `[{}]`, `{"mode":"fork"}`, `{"max_age":1,"min_free":2}`,
		`{"name":"a","contact":"b","processors":1,"mode":"batch","free_processors":1,"running_jobs":0,"queued_jobs":0,"forecast_wait":{"16":5,"2":1},"updated_at":3}`,
		`{"name":"a","contact":"b","processors":1,"mode":"batch","free_processors":1,"running_jobs":0,"queued_jobs":0,"forecast_wait":{},"updated_at":3}`,
		`{"name":"a","contact":"b","processors":1,"mode":"batch","free_processors":1,"running_jobs":0,"queued_jobs":0,"forecast_wait":null,"updated_at":3}`,
		`{"name":"a","contact":"b","processors":1,"mode":"batch","free_processors":1,"running_jobs":0,"queued_jobs":0,"forecast_wait":{"02":1},"updated_at":3}`,
		`[{"name":"a","contact":"b","processors":1,"mode":"batch","free_processors":1,"running_jobs":0,"queued_jobs":0,"updated_at":3}]`,
		`[{"name":"a","contact":"b","processors":1,"mode":"batch","free_processors":1,"running_jobs":0,"queued_jobs":0,"updated_at":3} ]`,
	} {
		f.Add("", int64(0), []byte(raw))
	}
	f.Fuzz(func(t *testing.T, s string, n int64, raw []byte) {
		checkJSONBody(t, fuzzRecord(s, n), oldRecord, raw)

		var fl Filter
		if n&1 != 0 {
			fl.MinProcessors = int(n)
		}
		if n&2 != 0 {
			fl.MinFree = int(n >> 2)
		}
		if n&4 != 0 {
			fl.Mode = s
		}
		if n&8 != 0 {
			fl.MaxAge = time.Duration(n)
		}
		checkJSONBody(t, fl, func() Filter { return Filter{MinProcessors: 7, MinFree: 7, Mode: "batch", MaxAge: 7} }, raw)

		var list recordList
		switch n >> 4 & 3 {
		case 1:
			list = recordList{}
		case 2, 3:
			list = recordList{fuzzRecord(s, n), fuzzRecord(s+"2", ^n)}
		}
		checkJSONBody(t, list, func() recordList { return recordList{oldRecord()} }, raw)
	})
}
