package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestEmitJSONFigure3(t *testing.T) {
	var buf bytes.Buffer
	if err := emitJSON(&buf, "3", "none", 1, 1, false); err != nil {
		t.Fatalf("emitJSON: %v", err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	raw, ok := out["figure3"]
	if !ok {
		t.Fatalf("missing figure3 key: %v", out)
	}
	var fig struct {
		Phases map[string]int64 `json:"Phases"`
	}
	if err := json.Unmarshal(raw, &fig); err != nil {
		t.Fatalf("figure3 shape: %v", err)
	}
	if fig.Phases["initgroups"] != 700_000_000 {
		t.Errorf("initgroups = %d ns, want 0.7s", fig.Phases["initgroups"])
	}
}

func TestEmitJSONNothingSelected(t *testing.T) {
	var buf bytes.Buffer
	if err := emitJSON(&buf, "none", "none", 1, 1, false); err == nil {
		t.Fatal("empty selection accepted")
	}
}

func TestEmitJSONBrokerSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := emitJSON(&buf, "none", "broker", 1, 1, true); err != nil {
		t.Fatalf("emitJSON: %v", err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	raw, ok := out["b1_broker_load"]
	if !ok {
		t.Fatalf("missing b1_broker_load key: %v", out)
	}
	var study struct {
		Rows []struct {
			Mode      string `json:"mode"`
			Requests  int    `json:"requests"`
			Completed int    `json:"completed"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &study); err != nil {
		t.Fatalf("b1_broker_load shape: %v", err)
	}
	if len(study.Rows) < 3 {
		t.Fatalf("rows = %d, want >= 3", len(study.Rows))
	}
	for i, row := range study.Rows {
		if row.Completed == 0 {
			t.Errorf("row %d (%s): nothing completed", i, row.Mode)
		}
	}
}

func TestEmitJSONAblationOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := emitJSON(&buf, "none", "ablation", 1, 1, false); err != nil {
		t.Fatalf("emitJSON: %v", err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	for _, key := range []string{"ab1_submission_ablation", "wide_area"} {
		if _, ok := out[key]; !ok {
			t.Errorf("missing %s", key)
		}
	}
}

// TestEmitJSONUnknownStudy: a misspelt -app or -fig is refused, naming the
// valid values, instead of being dropped from the document in silence.
func TestEmitJSONUnknownStudy(t *testing.T) {
	for _, c := range []struct{ fig, app, want string }{
		{"3", "chaoss", "atomic, bigrun, overprov, staleness, reserve, load, broker, chaos, federation, slo, scale, ablation, all, or none"},
		{"nosuch", "none", "2, 3, 4, 5, all, or none"},
		{"none", "wire", "federation, slo, scale"}, // B3 is a closed record, not a study
	} {
		var buf bytes.Buffer
		err := emitJSON(&buf, c.fig, c.app, 1, 1, true)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-fig %s -app %s: err = %v, want one listing %q", c.fig, c.app, err, c.want)
		}
		if buf.Len() != 0 {
			t.Errorf("-fig %s -app %s: wrote %d bytes before refusing", c.fig, c.app, buf.Len())
		}
	}
}

// TestMetricsOutDeterministic: the -metrics-out exposition is a function
// of the seed alone — every quantity in it is virtual-time, so goroutine
// interleaving must not leak into it.
func TestMetricsOutDeterministic(t *testing.T) {
	var runs [2][]byte
	for i := range runs {
		path := filepath.Join(t.TempDir(), "metrics.prom")
		if err := metricsOut(path, 1); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = raw
	}
	if len(runs[0]) == 0 {
		t.Fatal("exposition empty: the grid lost its registries")
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("exposition not byte-identical across runs:\n--- run1\n%s\n--- run2\n%s", runs[0], runs[1])
	}
}
