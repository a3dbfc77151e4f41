package federation

import "cogrid/internal/wire"

// Heartbeats and journal appends, each way, are written and read by hand,
// in exactly encoding/json's bytes (see wire.JSON).

func (m *ShardMap) json(j *wire.JSON) {
	j.Int("version", &m.Version)
	j.Int("epoch", &m.Epoch)
	j.String("leader", &m.Leader)
	j.Strings("replicas", &m.Replicas)
	j.Int("vnodes", &m.VNodes)
}

func (e *Entry) json(j *wire.JSON) {
	j.String("key", &e.Key)
	j.String("kind", &e.Kind)
	j.String("origin", &e.Origin)
	j.String("owner", &e.Owner)
	j.String("req_key,omitempty", &e.ReqKey)
	j.String("job_id,omitempty", &e.JobID)
	j.Bool("committed,omitempty", &e.Committed)
	j.String("rm,omitempty", &e.RM)
	j.String("contact,omitempty", &e.Contact)
	j.String("state", &e.State)
	j.Int("rev", &e.Rev)
	j.Int("seq,omitempty", &e.Seq)
	j.Duration("at", &e.At)
	j.Duration("handoff_at,omitempty", &e.HandoffAt)
}

func (m heartbeatMsg) AppendJSON(dst []byte) []byte {
	return wire.AppendJSON(dst, &m, (*heartbeatMsg).json)
}
func (m *heartbeatMsg) ParseJSON(src []byte) bool {
	return wire.ParseJSON(src, m, (*heartbeatMsg).json)
}

func (m *heartbeatMsg) json(j *wire.JSON) {
	j.String("from", &m.From)
	j.Int("epoch", &m.Epoch)
	wire.JSONObject(j, "shard", &m.Shard, (*ShardMap).json)
	j.Int("upd_start", &m.UpdStart)
	wire.JSONList(j, "updates,omitempty", &m.Updates, (*Entry).json)
}

func (r heartbeatReply) AppendJSON(dst []byte) []byte {
	return wire.AppendJSON(dst, &r, (*heartbeatReply).json)
}
func (r *heartbeatReply) ParseJSON(src []byte) bool {
	return wire.ParseJSON(src, r, (*heartbeatReply).json)
}

func (r *heartbeatReply) json(j *wire.JSON) {
	j.Int("ack", &r.Ack)
	j.Int("epoch", &r.Epoch)
	wire.JSONList(j, "updates,omitempty", &r.Updates, (*Entry).json)
}

func (m appendMsg) AppendJSON(dst []byte) []byte { return wire.AppendJSON(dst, &m, (*appendMsg).json) }
func (m *appendMsg) ParseJSON(src []byte) bool   { return wire.ParseJSON(src, m, (*appendMsg).json) }

func (m *appendMsg) json(j *wire.JSON) {
	j.String("from", &m.From)
	wire.JSONList(j, "entries", &m.Entries, (*Entry).json)
}

func (r appendReply) AppendJSON(dst []byte) []byte {
	return wire.AppendJSON(dst, &r, (*appendReply).json)
}
func (r *appendReply) ParseJSON(src []byte) bool { return wire.ParseJSON(src, r, (*appendReply).json) }
func (r *appendReply) json(j *wire.JSON) {
	wire.JSONList(j, "entries,omitempty", &r.Entries, (*Entry).json)
}
