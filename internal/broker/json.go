package broker

import "cogrid/internal/wire"

// A submission and its reply are written and read by hand, in exactly
// encoding/json's bytes (see wire.JSON).

// AppendJSON appends req as json.Marshal writes it.
func (req Request) AppendJSON(dst []byte) []byte { return wire.AppendJSON(dst, &req, (*Request).json) }

// ParseJSON reads what AppendJSON writes into req, as json.Unmarshal would.
func (req *Request) ParseJSON(src []byte) bool { return wire.ParseJSON(src, req, (*Request).json) }

func (req *Request) json(j *wire.JSON) {
	j.String("tenant", &req.Tenant)
	j.Int("sites", &req.Sites)
	j.Int("procs_per_site", &req.ProcsPerSite)
	j.String("executable", &req.Executable)
	j.Int("spares,omitempty", &req.Spares)
	j.Duration("commit_timeout,omitempty", &req.CommitTimeout)
	j.Duration("startup_timeout,omitempty", &req.StartupTimeout)
	j.Duration("max_time,omitempty", &req.MaxTime)
	j.Duration("deadline,omitempty", &req.Deadline)
	j.String("key,omitempty", &req.Key)
	j.String("origin,omitempty", &req.Origin)
	j.Int("hops,omitempty", &req.Hops)
	j.Duration("view_as_of,omitempty", &req.ViewAsOf)
}

// AppendJSON appends rep as json.Marshal writes it.
func (rep Reply) AppendJSON(dst []byte) []byte { return wire.AppendJSON(dst, &rep, (*Reply).json) }

// ParseJSON reads what AppendJSON writes into rep, as json.Unmarshal would.
func (rep *Reply) ParseJSON(src []byte) bool { return wire.ParseJSON(src, rep, (*Reply).json) }

func (rep *Reply) json(j *wire.JSON) {
	j.Bool("accepted", &rep.Accepted)
	j.Duration("retry_after,omitempty", &rep.RetryAfter)
	j.String("job_id,omitempty", &rep.JobID)
	j.Int("attempts,omitempty", &rep.Attempts)
	j.Int("substitutions,omitempty", &rep.Substitutions)
	j.Int("world_size,omitempty", &rep.WorldSize)
	j.Duration("queue_wait,omitempty", &rep.QueueWait)
	j.Duration("elapsed,omitempty", &rep.Elapsed)
	j.Int("hops,omitempty", &rep.Hops)
	j.String("error,omitempty", &rep.Error)
}
