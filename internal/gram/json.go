package gram

import "cogrid/internal/wire"

// A submit and its reply, and every job-state callback, are written and
// read by hand, in exactly encoding/json's bytes (see wire.JSON).

// AppendJSON appends ev as json.Marshal writes it.
func (ev StateEvent) AppendJSON(dst []byte) []byte {
	return wire.AppendJSON(dst, &ev, (*StateEvent).json)
}

// ParseJSON reads what AppendJSON writes into ev, as json.Unmarshal would.
func (ev *StateEvent) ParseJSON(src []byte) bool {
	return wire.ParseJSON(src, ev, (*StateEvent).json)
}

func (ev *StateEvent) json(j *wire.JSON) {
	j.String("contact", &ev.Contact)
	j.Int("state", (*int)(&ev.State))
	j.String("reason,omitempty", &ev.Reason)
	j.Duration("at", &ev.At)
}

func (a submitArgs) AppendJSON(dst []byte) []byte {
	return wire.AppendJSON(dst, &a, (*submitArgs).json)
}
func (a *submitArgs) ParseJSON(src []byte) bool { return wire.ParseJSON(src, a, (*submitArgs).json) }
func (a *submitArgs) json(j *wire.JSON)         { j.String("rsl", &a.RSL) }

func (r submitReply) AppendJSON(dst []byte) []byte {
	return wire.AppendJSON(dst, &r, (*submitReply).json)
}
func (r *submitReply) ParseJSON(src []byte) bool { return wire.ParseJSON(src, r, (*submitReply).json) }
func (r *submitReply) json(j *wire.JSON)         { j.String("job_contact", &r.JobContact) }
