package core

import "cogrid/internal/trace"

// AppAddr exposes the address of a process's application listener, whose
// tail after the host and ':' is the listener's service name.
var AppAddr = appAddr

// SharedWire exposes the release-encoded region a reply appends.
func SharedWire(r CheckinReply) []byte {
	if r.shared == nil {
		return nil
	}
	return r.shared.Bytes()
}

// AddressBookWire exposes a received Config's address book as the bytes it
// arrived in.
func AddressBookWire(c Config) []byte { return c.book.recv }

// NewRelease and its Reply expose the commit decision's encode-once form.
var NewRelease = newRelease

func (r *release) Reply(mySubjob, myRank int) CheckinReply { return r.reply(mySubjob, myRank) }

// SetSubjobLabels and SetAddressBook build a Config's lists as a commit does.
func (c *Config) SetSubjobLabels(labels []string) { c.setSubjobLabels(labels) }

func (c *Config) SetAddressBook(book []string) { c.setAddressBook(book) }

// Waiters counts the barrier waiters the job still holds.
func (j *Job) Waiters() int {
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
