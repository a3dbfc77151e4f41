package main

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// The brokered demos' contract: each one's JSONL trace and Prometheus
// exposition, hashed. However the demo's grid is assembled and its requests
// are driven, what it emits does not move.
func TestBrokeredDemosPinned(t *testing.T) {
	for _, d := range []struct {
		name           string
		run            func(runOptions) error
		trace, metrics string
	}{
		{"broker", runBrokerDemo, "eb7ee73d63f79cfd", "da226581c9b64986"},
		{"federation", runFederationDemo, "333784ccbd3a9666", "d205cd57732920bc"},
		{"chaos", runChaosDemo, "d6c7681f5f25ade5", "45ffd222308684b7"},
	} {
		t.Run(d.name, func(t *testing.T) {
			trace, metrics := sha256.New(), sha256.New()
			if err := d.run(runOptions{JSONLW: trace, MetricsW: metrics}); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", trace.Sum(nil))[:16]; got != d.trace {
				t.Errorf("trace moved: hash %s, want %s", got, d.trace)
			}
			if got := fmt.Sprintf("%x", metrics.Sum(nil))[:16]; got != d.metrics {
				t.Errorf("exposition moved: hash %s, want %s", got, d.metrics)
			}
		})
	}
}
