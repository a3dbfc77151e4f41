package core

import "cogrid/internal/trace"

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

// Checkin plays one process's check-in at the controller's barrier service,
// past the connection: answer receives the reply when it is decided, as the
// value the service hands the rpc layer to encode.
func (c *Controller) Checkin(args CheckinArgs, answer func(CheckinReply)) {
	c.checkin(args, trace.Ctx{}, answerFunc(answer))
}

type answerFunc func(CheckinReply)

func (f answerFunc) Reply(result any, err error) { f(result.(CheckinReply)) }
