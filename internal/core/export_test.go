package core

// SharedWire exposes the release-encoded region a reply appends.
func SharedWire(r CheckinReply) []byte { return r.shared }

// Waiters counts the barrier waiters the job still holds.
func (j *Job) Waiters() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for _, sj := range j.subjobs {
		n += len(sj.checkins)
	}
	return n
}
