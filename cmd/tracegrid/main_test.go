package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// analyzeSmoke runs `tracegrid -smoke [-check]` and returns its standard
// output, writing the JSONL trace to tracePath when it is not empty.
func analyzeSmoke(t *testing.T, tracePath string, check bool) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, nil, "", true, 1, check, tracePath, "", 5*time.Second); err != nil {
		t.Fatalf("-smoke: %v", err)
	}
	return out.String()
}

// TestAnalyzeFileMatchesSmoke: the trace -smoke writes with -trace, read
// back with -analyze FILE, yields the same report as the in-process run,
// and passes -check the same way.
func TestAnalyzeFileMatchesSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "smoke.jsonl")
	want := analyzeSmoke(t, path, true)
	if !strings.Contains(want, "check: ok") {
		t.Fatalf("-smoke -check did not pass:\n%s", want)
	}
	var got bytes.Buffer
	if err := run(&got, nil, path, false, 1, true, "", "", 5*time.Second); err != nil {
		t.Fatalf("-analyze %s: %v", path, err)
	}
	if got.String() != want {
		t.Fatalf("-analyze FILE report differs from -smoke:\n--- analyze\n%s\n--- smoke\n%s", got.String(), want)
	}
}

// TestAnalyzeStdin: "-analyze -" reads the trace from standard input.
func TestAnalyzeStdin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "smoke.jsonl")
	want := analyzeSmoke(t, path, false)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, bytes.NewReader(raw), "-", false, 1, false, "", "", 5*time.Second); err != nil {
		t.Fatalf("-analyze -: %v", err)
	}
	if got.String() != want {
		t.Fatalf("-analyze - report differs from -smoke:\n--- stdin\n%s\n--- smoke\n%s", got.String(), want)
	}
}

// TestModeRequired: exactly one of -analyze and -smoke; neither and both
// are refused before anything runs, and exit 1.
func TestModeRequired(t *testing.T) {
	for _, c := range []struct {
		analyze string
		smoke   bool
	}{{"", false}, {"trace.jsonl", true}} {
		var out bytes.Buffer
		err := run(&out, nil, c.analyze, c.smoke, 1, false, "", "", 5*time.Second)
		if err == nil || !strings.Contains(err.Error(), "exactly one of") {
			t.Errorf("-analyze %q -smoke=%v: err = %v, want the usage error", c.analyze, c.smoke, err)
		}
		if code := exitCode(err); code != 1 {
			t.Errorf("-analyze %q -smoke=%v: exit %d, want 1", c.analyze, c.smoke, code)
		}
		if out.Len() != 0 {
			t.Errorf("-analyze %q -smoke=%v: printed %q", c.analyze, c.smoke, out.String())
		}
	}
}

// TestCheckViolationExits2: a trace whose events carry no request id
// breaks the coverage invariant; -check prints the report, then fails
// with the violations, which exit 2.
func TestCheckViolationExits2(t *testing.T) {
	trace := `{"at":0,"dur":1000,"cat":"transport","name":"dial","proc":"a","thr":"b"}` + "\n"
	var out bytes.Buffer
	err := run(&out, strings.NewReader(trace), "-", false, 1, true, "", "", 5*time.Second)
	if _, ok := err.(violations); !ok || !strings.Contains(err.Error(), "coverage") {
		t.Fatalf("err = %v, want a coverage violation", err)
	}
	if code := exitCode(err); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out.Len() == 0 || strings.Contains(out.String(), "check: ok") {
		t.Fatalf("report = %q, want one without the ok line", out.String())
	}
}
