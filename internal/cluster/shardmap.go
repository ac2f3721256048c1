// Package cluster implements sharded multi-primary scale-out: a versioned
// consistent-hash ShardMap over document ids and a Router that owns N
// shard nodes, each an independent store.Store with its own WAL, commit
// pipeline, and replica chain. Writes hash to exactly one shard's commit
// pipeline; point reads route directly; queries scatter to all shards,
// each returning its result window, and gather through the ordered k-way
// merge, so cross-shard results are byte-identical to a single node's.
//
// This mirrors the paper's InvaliDB design — a matrix of query×object
// partitions — and the same ShardMap drives InvaliDB cell placement
// (invalidb.Config.Placement), so a shard's real-time matching cells see
// exactly that shard's ordered change stream.
package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultVNodes is the number of virtual nodes per shard on the hash
// ring. 64 vnodes keep the keyspace split within a few percent of even
// while the ring stays small enough to rebuild on every map fetch.
const DefaultVNodes = 64

// vnode is one virtual point on the consistent-hash ring.
type vnode struct {
	hash  uint32
	shard int
}

// ShardMap is the versioned cluster topology: how many shards exist and
// how document ids map onto them. The wire form (JSON) carries only the
// parameters; the ring is derived deterministically, so every node and
// client that agrees on (Shards, VNodes) agrees on placement. Epoch
// versions the map: servers stamp X-Quaestor-Shard-Epoch on responses and
// stale clients refetch.
type ShardMap struct {
	Epoch  uint64 `json:"epoch"`
	Shards int    `json:"shards"`
	VNodes int    `json:"vnodes"`
	// Nodes optionally carries one base URL per shard for multi-process
	// topologies. Empty in single-process mode: every shard is served by
	// the same endpoint and the server routes internally.
	Nodes []string `json:"nodes,omitempty"`

	mu   sync.Mutex
	ring []vnode
}

// NewShardMap builds a map of n shards (minimum 1) at epoch 1 with the
// default vnode count.
func NewShardMap(n int) *ShardMap {
	if n < 1 {
		n = 1
	}
	return &ShardMap{Epoch: 1, Shards: n, VNodes: DefaultVNodes}
}

// hash32 is the placement hash (FNV-1a, matching the store's intra-table
// sharding idiom).
func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// ensureRing derives the ring from (Shards, VNodes) once. Deterministic:
// equal parameters produce an identical ring everywhere.
func (m *ShardMap) ensureRing() []vnode {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.ring) > 0 {
		return m.ring
	}
	vn := m.VNodes
	if vn <= 0 {
		vn = DefaultVNodes
	}
	ring := make([]vnode, 0, m.Shards*vn)
	for s := 0; s < m.Shards; s++ {
		for v := 0; v < vn; v++ {
			ring = append(ring, vnode{hash: hash32(fmt.Sprintf("shard-%d/vnode-%d", s, v)), shard: s})
		}
	}
	sort.Slice(ring, func(i, j int) bool {
		if ring[i].hash != ring[j].hash {
			return ring[i].hash < ring[j].hash
		}
		return ring[i].shard < ring[j].shard
	})
	m.ring = ring
	return ring
}

// Shard maps a document id to its owning shard: the first vnode at or
// clockwise past the id's hash.
func (m *ShardMap) Shard(id string) int {
	if m.Shards <= 1 {
		return 0
	}
	ring := m.ensureRing()
	h := hash32(id)
	i := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= h })
	if i == len(ring) {
		i = 0 // wrap past the highest vnode
	}
	return ring[i].shard
}

// NodeURL returns the base URL serving a shard, or "" when the topology
// is single-process (route to any node; it proxies internally).
func (m *ShardMap) NodeURL(shard int) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if shard < 0 || shard >= len(m.Nodes) {
		return ""
	}
	return m.Nodes[shard]
}

// CurrentEpoch reads the map's epoch under the lock. Servers stamp this
// per response, so an epoch bump (failover, resharding) is visible to
// clients on the very next exchange.
func (m *ShardMap) CurrentEpoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Epoch
}

// Snapshot returns a detached copy of the map safe to marshal or hand to
// another goroutine while the original keeps mutating. The ring is not
// copied; it re-derives from (Shards, VNodes), which never change after
// construction.
func (m *ShardMap) Snapshot() *ShardMap {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := &ShardMap{Epoch: m.Epoch, Shards: m.Shards, VNodes: m.VNodes}
	if len(m.Nodes) > 0 {
		cp.Nodes = append([]string(nil), m.Nodes...)
	}
	return cp
}

// SetTopology adopts a rewritten node list at a new epoch (e.g. pushed by
// the failover coordinator after promoting replicas). Placement is
// untouched — the ring depends only on (Shards, VNodes) — so the rewrite
// changes which endpoint serves each shard, never which shard owns a key.
// Stale pushes (epoch ≤ current) are ignored; returns whether the map
// advanced.
func (m *ShardMap) SetTopology(epoch uint64, nodes []string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch <= m.Epoch {
		return false
	}
	m.Epoch = epoch
	m.Nodes = append([]string(nil), nodes...)
	return true
}

// ParseShardMap decodes a wire-form map (e.g. the /v1/cluster/map
// response) and validates it.
func ParseShardMap(data []byte) (*ShardMap, error) {
	var m ShardMap
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: parsing shard map: %w", err)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("cluster: shard map has %d shards", m.Shards)
	}
	return &m, nil
}
