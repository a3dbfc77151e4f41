//go:build race

package rpc

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is given, so the frame buffers the cost tests count on being reused are
// sometimes allocated afresh.
const raceEnabled = true
