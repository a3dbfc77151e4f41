// Package federation runs a peer group of broker replicas as one
// co-allocation control plane: a leader elected by a bully protocol with
// virtual-time lease timeouts, machine ownership sharded across replicas
// by consistent hashing, peer-to-peer forwarding of requests a shard
// cannot host, and a replicated ticket journal so any replica can reap a
// dead peer's in-flight 2PC allocations.
//
// The paper's co-allocator (DUROC atop GRAM) is a single point of
// control; this package is the collective layer scaled out: N broker
// replicas, each owning a shard of the machine population, behaving to
// clients like one broker with no single point of failure.
package federation

import (
	"encoding/json"
	"hash/fnv"
	"sort"
	"strconv"
)

// defaultVNodes is the number of ring points per replica. Enough that an
// 8-replica ring spreads a dozen machines without pathological skew,
// small enough that map recomputation is trivial.
const defaultVNodes = 64

// ShardMap is the leader-published assignment of machines to replicas:
// a consistent-hash ring over the live replica set. Replicas filter
// their candidate selection to machines they own; the map itself is
// versioned so stale copies lose to newer ones.
type ShardMap struct {
	// Version increases on every membership change; higher wins.
	Version int `json:"version"`
	// Epoch and Leader identify the leadership that published the map.
	Epoch  int    `json:"epoch"`
	Leader string `json:"leader"`
	// Replicas are the live replica names on the ring, sorted.
	Replicas []string `json:"replicas"`
	// VNodes is the virtual-node count per replica.
	VNodes int `json:"vnodes"`
}

// JSON renders the map for MDS meta publication.
func (m ShardMap) JSON() string {
	b, _ := json.Marshal(m)
	return string(b)
}

// ParseShardMap decodes a published map.
func ParseShardMap(s string) (ShardMap, error) {
	var m ShardMap
	err := json.Unmarshal([]byte(s), &m)
	return m, err
}

// ring is the materialized consistent-hash ring for one ShardMap.
type ring struct {
	points []ringPoint
}

type ringPoint struct {
	hash    uint32
	replica string
}

// Ring materializes the map's hash ring. Returns nil when the map is
// empty (bootstrap: no filtering, no forwarding).
func (m ShardMap) Ring() *ring {
	if len(m.Replicas) == 0 {
		return nil
	}
	vnodes := m.VNodes
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	r := &ring{points: make([]ringPoint, 0, len(m.Replicas)*vnodes)}
	for _, name := range m.Replicas {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash32(name + "#" + strconv.Itoa(v)),
				replica: name,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by name so the ring is a
		// pure function of the replica set.
		return r.points[i].replica < r.points[j].replica
	})
	return r
}

// Owner maps a key (machine name, journal key) to the replica owning it:
// the first ring point at or clockwise of the key's hash.
func (r *ring) Owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := hash32(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].replica
}

// Owner is the one-shot form of Ring().Owner for callers without a
// cached ring.
func (m ShardMap) Owner(key string) string { return m.Ring().Owner(key) }

func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	x := h.Sum32()
	// Raw FNV clusters badly over short, similar strings (siteNN,
	// fedNN#v), which skews ring ownership to the point of starving
	// replicas; a murmur-style finalizer avalanches the bits.
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}
