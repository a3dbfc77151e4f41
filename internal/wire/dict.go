package wire

import "hash/fnv"

// The builtin method dictionary: every RPC method name the stack's
// services use in production. Both ends of a connection compile the same
// table into the binary, so a dictionary method costs one VLQ byte on the
// wire instead of its name. The handshake prologue each direction starts
// with carries the table's length and hash; a decoder
// rejects a prologue whose dictionary disagrees with its own, which is
// what "exchanging" the dictionary means for co-compiled endpoints.
//
// Methods outside the table (tests, future services) are sent with their
// name inline in every frame rather than through a negotiated dynamic ID:
// the transport drops messages under partitions and overload, and a
// dictionary built from frames that may never arrive would desynchronize.
// Inline names keep every frame independently decodable.
var builtin = []string{
	"append",            // federation: journal replication
	"cancel",            // gram: job cancellation
	"cancelreservation", // gram: advance-reservation release
	"checkin",           // core: DUROC runtime barrier checkin
	"coordinator",       // federation: bully election victory
	"earliestslot",      // gram: reservation slot probe
	"election",          // federation: bully election round
	"estimatewait",      // gram: queue-wait forecast
	"getmeta",           // mds: metadata fetch
	"heartbeat",         // federation: leader lease + shard map
	"initgroups",        // nis: group lookup
	"job-state",         // gram: asynchronous state callback
	"putmeta",           // mds: metadata publish
	"query",             // mds: resource discovery
	"queueinfo",         // gram: LRM queue introspection
	"register",          // mds: resource registration
	"reserve",           // gram: advance reservation
	"signal",            // gram: suspend/resume
	"stats",             // broker: service statistics
	"status",            // gram: job status poll
	"submit",            // gram + broker: the hot path
	"unregister",        // mds: resource removal
}

var builtinID = func() map[string]uint32 {
	m := make(map[string]uint32, len(builtin))
	for i, name := range builtin {
		m[name] = uint32(i)
	}
	return m
}()

// DictLen returns the number of builtin dictionary entries.
func DictLen() int { return len(builtin) }

// DictHash returns the FNV-32a hash of the builtin dictionary, the value
// the handshake prologue carries so both ends can verify they compiled
// the same table. Every prologue encoded and every one decoded asks, four
// times a connection, so it is computed once.
func DictHash() uint32 { return builtinHash }

var builtinHash = func() uint32 {
	h := fnv.New32a()
	for _, name := range builtin {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	return h.Sum32()
}()

// methodID returns the dictionary ID for a method name.
func methodID(name string) (uint32, bool) {
	id, ok := builtinID[name]
	return id, ok
}

// methodName returns the dictionary entry for an ID.
func methodName(id uint64) (string, bool) {
	if id >= uint64(len(builtin)) {
		return "", false
	}
	return builtin[id], true
}
