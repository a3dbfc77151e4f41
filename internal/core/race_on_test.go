//go:build race

package core_test

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is given, so the frame buffers the send-side cost test counts on being
// reused are sometimes allocated afresh.
const raceEnabled = true
