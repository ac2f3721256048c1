package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"quaestor/internal/cluster"
	"quaestor/internal/replication"
	"quaestor/internal/store"
)

// Cluster surface: the server fronts a cluster.Router of N ≥ 1 shard
// stores. Point ops route to the owning shard's commit pipeline, queries
// scatter-gather, replication endpoints select a shard with ?shard=i, and
// InvaliDB cell placement is keyed off the same ShardMap that routes
// writes.

// HeaderShardEpoch carries the server's shard-map epoch on every response
// of a multi-shard node. Clients that cached an older map refetch
// /v1/cluster/map and retry.
const HeaderShardEpoch = "X-Quaestor-Shard-Epoch"

// HeaderPrimary advertises the primary's base URL on every response a
// replica serves, so a client whose write bounced with 503 (read-only
// replica) can redirect the write to the primary and retry once.
const HeaderPrimary = "X-Quaestor-Primary"

// withShardEpoch stamps every response of a multi-shard node with the
// shard-map epoch (so clients can detect a stale cached map; a 1-shard
// node has no placement a client could have cached wrong, so its
// responses carry no stamp) and, on a node that cannot accept writes
// (following replica or fenced ex-primary), with the primary's address
// (so bounced writes can redirect). Both are resolved per request:
// replicas attach, epochs bump (failover map rewrites), and fences land
// after the handler is built — a cached value would advertise a dead
// primary or a stale map for the rest of the process lifetime.
func (s *Server) withShardEpoch(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.router.NumShards() > 1 {
			w.Header().Set(HeaderShardEpoch, strconv.FormatUint(s.router.Map().CurrentEpoch(), 10))
		}
		if p := s.primaryHint(); p != "" {
			w.Header().Set(HeaderPrimary, p)
		}
		next.ServeHTTP(w, r)
	})
}

// handleClusterMap serves the versioned shard map. GET answers a
// detached snapshot; POST adopts a rewritten topology pushed by the
// failover coordinator.
func (s *Server) handleClusterMap(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Cache-Control", "no-store")
		writeJSON(w, http.StatusOK, s.router.Map().Snapshot())
	case http.MethodPost:
		s.handleClusterMapAdopt(w, r)
	default:
		writeError(w, &httpError{http.StatusMethodNotAllowed, "GET or POST"})
	}
}

// handleClusterMapAdopt ingests a rewritten shard map: identical
// placement parameters (shard count, vnodes — the ring must not move),
// a new node list, a higher epoch. Stale or already-adopted epochs are
// acknowledged without applying, so coordinator retries are idempotent.
func (s *Server) handleClusterMapAdopt(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, badRequest("reading shard map: %v", err))
		return
	}
	nm, err := cluster.ParseShardMap(body)
	if err != nil {
		writeError(w, badRequest("%v", err))
		return
	}
	cur := s.router.Map()
	if nm.Shards != cur.Shards || (nm.VNodes != 0 && nm.VNodes != cur.VNodes) {
		writeError(w, &httpError{http.StatusConflict,
			fmt.Sprintf("placement mismatch: pushed map has %d shards, this node serves %d — map rewrite cannot move placement", nm.Shards, cur.Shards)})
		return
	}
	if len(nm.Nodes) != 0 && len(nm.Nodes) != cur.Shards {
		writeError(w, badRequest("node list has %d entries for %d shards", len(nm.Nodes), cur.Shards))
		return
	}
	adopted := cur.SetTopology(nm.Epoch, nm.Nodes)
	writeJSON(w, http.StatusOK, map[string]any{"adopted": adopted, "epoch": cur.CurrentEpoch()})
}

// shardParam parses a request's ?shard=i selector against n shards; -1
// means the parameter is absent.
func shardParam(r *http.Request, n int) (int, error) {
	v := r.URL.Query().Get("shard")
	if v == "" {
		return -1, nil
	}
	idx, err := strconv.Atoi(v)
	if err != nil || idx < 0 || idx >= n {
		return 0, badRequest("invalid shard %q (%d shards)", v, n)
	}
	return idx, nil
}

// replStore resolves the shard store a replication request targets
// (?shard=i; shard 0 when absent).
func (s *Server) replStore(r *http.Request) (*store.Store, error) {
	idx, err := shardParam(r, s.router.NumShards())
	if err != nil {
		return nil, err
	}
	if idx < 0 {
		idx = 0
	}
	return s.router.Store(idx), nil
}

// AttachReplicas hands the server the per-shard follower loops it fronts
// (index = shard, one per shard store), enabling the status/promote
// endpoints, the per-shard replication sections of /v1/stats and
// staleness headers on reads. It also starts one coherence pump per
// shard store feeding replicated writes into the TTL estimator and the
// EBF — without it a replica's estimator would see no writes at all
// (they arrive through replication, not the HTTP write path) and every
// key would look cold.
func (s *Server) AttachReplicas(rs ...*replication.Replica) {
	s.updateRole(func(r *nodeRole) { r.replicas = rs })
	for i, st := range s.router.Stores() {
		s.followCoherence(st, fmt.Sprintf("replica-coherence-%d", i))
	}
}

// ReplicaSetResponse is the JSON body of GET /v1/cluster/replicas: the
// deployment's read topology. Every advertised replica follows all of
// the primary's shards (one replication loop per shard), so any replica
// endpoint can serve any key — clients route bounded reads across
// Replicas and everything else to Primary.
type ReplicaSetResponse struct {
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas"`
}

// handleClusterReplicas serves the advertised read topology. Nodes with
// no advertised topology answer an empty set — clients then keep every
// read on their configured endpoint. POST adopts a rewritten topology
// (the failover coordinator pushes the new primary + surviving replicas
// to every survivor after a cutover).
func (s *Server) handleClusterReplicas(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Cache-Control", "no-store")
		primary, replicas := s.ReplicaEndpoints()
		writeJSON(w, http.StatusOK, ReplicaSetResponse{Primary: primary, Replicas: replicas})
	case http.MethodPost:
		var req ReplicaSetResponse
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, badRequest("decoding replica set: %v", err))
			return
		}
		s.SetReplicaEndpoints(req.Primary, req.Replicas)
		writeJSON(w, http.StatusOK, map[string]any{"adopted": true})
	default:
		writeError(w, &httpError{http.StatusMethodNotAllowed, "GET or POST"})
	}
}

// ShardReplicas returns the attached per-shard replicas (nil on a
// primary).
func (s *Server) ShardReplicas() []*replication.Replica { return s.role.Load().replicas }

// ShardSection is one shard's slice of /v1/stats and
// /v1/replication/status.
type ShardSection struct {
	Shard       int                    `json:"shard"`
	LastSeq     uint64                 `json:"lastSeq"`
	Pipeline    store.PipelineStats    `json:"pipeline"`
	Durability  *store.DurabilityStats `json:"durability,omitempty"`
	Replication *replication.Status    `json:"replication,omitempty"`
}

// ClusterSection is the shard topology's slice of /v1/stats.
type ClusterSection struct {
	Epoch  uint64         `json:"epoch"`
	Shards []ShardSection `json:"shards"`
}

// clusterSection builds the per-shard stats.
func (s *Server) clusterSection() *ClusterSection {
	reps := s.ShardReplicas()
	sec := &ClusterSection{Epoch: s.router.Map().CurrentEpoch()}
	for i, st := range s.router.Stores() {
		sh := ShardSection{
			Shard:    i,
			LastSeq:  st.LastSeq(),
			Pipeline: st.PipelineStats(),
		}
		if ds, ok := st.DurabilityStats(); ok {
			sh.Durability = &ds
		}
		if i < len(reps) && reps[i] != nil {
			rs := reps[i].Status()
			sh.Replication = &rs
		}
		sec.Shards = append(sec.Shards, sh)
	}
	return sec
}
