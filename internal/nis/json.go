package nis

import "cogrid/internal/wire"

// An initgroups call and its reply are written and read by hand, in
// exactly encoding/json's bytes (see wire.JSON).

func (a lookupArgs) AppendJSON(dst []byte) []byte {
	return wire.AppendJSON(dst, &a, (*lookupArgs).json)
}
func (a *lookupArgs) ParseJSON(src []byte) bool { return wire.ParseJSON(src, a, (*lookupArgs).json) }
func (a *lookupArgs) json(j *wire.JSON)         { j.String("user", &a.User) }

func (r lookupReply) AppendJSON(dst []byte) []byte {
	return wire.AppendJSON(dst, &r, (*lookupReply).json)
}
func (r *lookupReply) ParseJSON(src []byte) bool { return wire.ParseJSON(src, r, (*lookupReply).json) }
func (r *lookupReply) json(j *wire.JSON)         { j.Strings("groups", &r.Groups) }
