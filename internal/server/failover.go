package server

import (
	"encoding/json"
	"net/http"

	"quaestor/internal/coordinator"
	"quaestor/internal/replication"
)

// Server-side half of automatic failover (see internal/coordinator):
//
//	POST /v1/replication/demote — fence this node: stop accepting writes,
//	    advertise the successor primary on every response
//	POST /v1/cluster/map        — adopt a rewritten shard map (higher epoch)
//	POST /v1/cluster/replicas   — adopt a rewritten read topology
//	GET  /v1/failover/status    — the attached coordinator's view
//
// plus the advertised-endpoint bookkeeping a promotion implies: a
// promoted node must stop appearing in GET /v1/cluster/replicas as a
// replica while its dead primary stays advertised.

// SetSelfURL tells the server its own externally reachable base URL
// (quaestor-server -advertise-self). A node that knows its own address
// advertises itself as the primary when promoted.
func (s *Server) SetSelfURL(u string) {
	s.updateRole(func(r *nodeRole) { r.selfURL = u })
}

// AttachCoordinator hands the server a running failover coordinator so
// its state is observable at GET /v1/failover/status and in the
// /v1/stats failover section.
func (s *Server) AttachCoordinator(co *coordinator.Coordinator) {
	s.mu.Lock()
	s.coord = co
	s.mu.Unlock()
}

// Coordinator returns the attached failover coordinator, or nil.
func (s *Server) Coordinator() *coordinator.Coordinator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coord
}

// fencedPrimary returns the successor primary this node was demoted in
// favor of ("" when not fenced).
func (s *Server) fencedPrimary() string { return s.role.Load().fencedTo }

// primaryHint resolves the base URL writes should be redirected to when
// this node cannot accept them: the fencing successor on a demoted
// ex-primary, the advertised primary override (pushed by the
// coordinator after a failover — the replica's configured primary is
// the dead node), or the primary the replica follows. "" on a writable
// node: no hint is stamped.
func (s *Server) primaryHint() string {
	role := s.role.Load()
	if role.fencedTo != "" {
		return role.fencedTo
	}
	st, ok := s.replicaStatus()
	if !ok || st.State == replication.StatePromoted {
		return ""
	}
	if role.advPrimary != "" && role.advPrimary != role.selfURL {
		return role.advPrimary
	}
	return st.Primary
}

// handleFailoverStatus serves GET /v1/failover/status.
func (s *Server) handleFailoverStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, &httpError{http.StatusMethodNotAllowed, "GET only"})
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	co := s.Coordinator()
	if co == nil {
		writeError(w, &httpError{http.StatusNotFound, "no failover coordinator attached to this node"})
		return
	}
	writeJSON(w, http.StatusOK, co.Status())
}

// DemoteRequest is the body of POST /v1/replication/demote: the fencing
// order a failover coordinator sends to an ex-primary whose replicas
// were promoted while it was unreachable. Primary is the successor to
// advertise; Epoch (optional) is the rewritten map's epoch.
type DemoteRequest struct {
	Primary string `json:"primary"`
	Epoch   uint64 `json:"epoch,omitempty"`
}

// handleReplDemote fences this node: every local store flips read-only
// so in-flight and future writes bounce 503, and X-Quaestor-Primary on
// every response names the successor. Idempotent — a re-delivered fence
// just updates the successor. A node still actively following a primary
// answers 409: demotion targets (ex-)primaries, not replicas.
func (s *Server) handleReplDemote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &httpError{http.StatusMethodNotAllowed, "POST only"})
		return
	}
	var req DemoteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, badRequest("decoding demote request: %v", err))
		return
	}
	if req.Primary == "" {
		writeError(w, badRequest("demote request must name the successor primary"))
		return
	}
	if s.servingAsReplica() {
		writeError(w, &httpError{http.StatusConflict, "node is a following replica; demote targets a primary"})
		return
	}
	for _, db := range s.router.Stores() {
		db.SetReadOnly(true)
	}
	s.updateRole(func(r *nodeRole) {
		r.fencedTo = req.Primary
		r.advPrimary = req.Primary
	})
	writeJSON(w, http.StatusOK, map[string]any{"demoted": true, "primary": req.Primary})
}

// noteSelfPromoted updates the advertised endpoint set once every local
// follower has been promoted: this node is a primary now, so it must
// stop listing itself as a replica, must stop advertising the (dead)
// primary it used to follow, and — when it knows its own address —
// advertises itself as the new primary. Clients calling
// GET /v1/cluster/replicas then converge instead of routing bounded
// reads at a corpse. Promotion also clears any fence left from a
// previous demotion.
func (s *Server) noteSelfPromoted(oldPrimary string) {
	s.updateRole(func(r *nodeRole) {
		r.fencedTo = ""
		if r.selfURL == "" {
			if r.advPrimary == oldPrimary {
				r.advPrimary = ""
			}
			return
		}
		r.advPrimary = r.selfURL
		var keep []string
		for _, u := range r.advReplicas {
			if u != r.selfURL {
				keep = append(keep, u)
			}
		}
		r.advReplicas = keep
	})
}

// allShardsPromoted reports whether every attached follower has been
// promoted (false on a primary: nothing attached).
func (s *Server) allShardsPromoted() bool {
	reps := s.ShardReplicas()
	for _, rep := range reps {
		if rep.Status().State != replication.StatePromoted {
			return false
		}
	}
	return len(reps) > 0
}
