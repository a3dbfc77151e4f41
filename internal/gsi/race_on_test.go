//go:build race

package gsi

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is given, so pooled frame buffers are sometimes allocated afresh.
const raceEnabled = true
