//go:build race

package rpc

// raceEnabled: the cost tests' call bodies are strings, which rpc marshals
// and decodes with encoding/json, and under the race detector encoding/json
// allocates more: it keeps its encode states in a sync.Pool of its own, which
// the race detector empties at random (json.newEncodeState and
// bytes.Buffer.grow allocate afresh), and its literalStore allocates where it
// otherwise does not. A memory profile of TestOneShotExchangeCosts counts
// 5 677 objects under -race and 4 104 without, and the 1 573 more are all in
// encoding/json. Measured under -race: a call on a warm connection 10.9–11.1
// allocations and 518–533 B (pin 9.5 and 400), a one-shot exchange 14.7–15.0
// (pin 13), an untraced call under a request context 13–14 (pin 12).
const raceEnabled = true
