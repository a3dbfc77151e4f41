package agent

import (
	"math/rand"
	"testing"
	"time"
)

func TestNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := time.Hour
	if got := noisy(base, 0, rng.NormFloat64); got != base {
		t.Errorf("sigma 0 changed the value: %v", got)
	}
	same := true
	for i := 0; i < 10; i++ {
		if noisy(base, 1.0, rng.NormFloat64) != base {
			same = false
		}
	}
	if same {
		t.Error("sigma 1 never perturbed the value")
	}
	// Noise is multiplicative: result stays positive.
	for i := 0; i < 100; i++ {
		if noisy(base, 2.0, rng.NormFloat64) <= 0 {
			t.Fatal("noisy forecast went non-positive")
		}
	}
}
