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
		{"broker", runBrokerDemo, "eb7ee73d63f79cfd", "def13739a7be95af"},
		{"federation", runFederationDemo, "1b61d2659e0ead6f", "178aac31a0bdc480"},
		{"chaos", runChaosDemo, "269ae28d650e2635", "1ce19ae05e45fb97"},
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
