package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"quaestor/internal/commitlog"
	"quaestor/internal/replication"
	"quaestor/internal/wal"
)

// Replication endpoints. Every server can act as a replication primary
// (any node's pipeline and snapshots are exportable — chained replicas
// included); a server additionally holding replication.Replica loops
// (AttachReplicas) serves the replica-side status and promotion surface.
// The transfer endpoints select a shard store with ?shard=i:
//
//	GET  /v1/replication/snapshot — snapshot stream (replica bootstrap)
//	GET  /v1/replication/stream   — ordered record frames from SubscribeFrom
//	GET  /v1/replication/status   — primary role, or one replica status per shard
//	POST /v1/replication/promote  — stop following, accept writes

// replStreamHeartbeat is how often an idle stream sends a progress
// frame; it bounds both dead-connection detection and the replica's
// reported staleness resolution.
const replStreamHeartbeat = 500 * time.Millisecond

// Read-routing protocol headers. A client spreading reads across the
// replica tier bounds each read with HeaderMaxStaleness (and, for
// read-your-writes, HeaderMinSeq); a replica that cannot meet the bound
// answers 412 Precondition Failed carrying its current staleness, so the
// client re-routes without parsing a body.
const (
	// HeaderMaxStaleness is the request header carrying the client's
	// staleness bound in milliseconds. A replica whose provable staleness
	// exceeds it (or is still unknown) rejects the read with 412.
	HeaderMaxStaleness = "X-Quaestor-Max-Staleness-Ms"
	// HeaderMinSeq is the request header carrying the client's
	// read-your-writes floor: the owning store's sequence its last write
	// to this key was acknowledged at. A replica whose applied sequence
	// is below it rejects with 412.
	HeaderMinSeq = "X-Quaestor-Min-Seq"
	// HeaderAppliedSeq annotates replica-served record reads with the
	// owning store's applied sequence, so clients can track how far the
	// serving replica had caught up.
	HeaderAppliedSeq = "X-Quaestor-Applied-Seq"
	// HeaderWriteSeq annotates successful write responses with the owning
	// store's sequence at acknowledgement time — the value clients feed
	// into their per-key low-water-mark table for read-your-writes
	// routing. It is an upper bound on the write's own sequence, which is
	// the conservative (safe) direction.
	HeaderWriteSeq = "X-Quaestor-Seq"
	// HeaderEBFGenerated annotates read responses with the serving node's
	// EBF generation (Unix nanoseconds of its newest stale-key entry).
	// Clients holding an older filter refresh it from the tier that
	// serves them — Cached-Initialization-style piggybacking without a
	// primary round-trip.
	HeaderEBFGenerated = "X-Quaestor-EBF-Generated"
)

// replWriteTimeout bounds every write on a replication transfer. It is
// what protects the primary from a stalled-but-open replica connection:
// the stream feeds a Block-policy subscription, so a consumer that
// stops reading would otherwise fill the fan-out ring and wedge the
// entire write path. A snapshot export holds no lock while it writes,
// so there the bound only frees the handler. A frozen peer errors out
// within this bound and the handler's cleanup (Cancel) releases its
// subscription.
const replWriteTimeout = 10 * time.Second

// deadlineWriter arms a fresh write deadline before every Write, so a
// long transfer only fails when the peer actually stalls, not for being
// large.
type deadlineWriter struct {
	w  io.Writer
	rc *http.ResponseController
}

func (d *deadlineWriter) Write(p []byte) (int, error) {
	// Ignore SetWriteDeadline errors (e.g. an http.ResponseWriter
	// wrapper without the capability): the write itself still proceeds,
	// only unbounded.
	_ = d.rc.SetWriteDeadline(time.Now().Add(replWriteTimeout))
	return d.w.Write(p)
}

// handleReplication routes /v1/replication/*.
func (s *Server) handleReplication(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/replication/snapshot":
		s.handleReplSnapshot(w, r)
	case "/v1/replication/stream":
		s.handleReplStream(w, r)
	case "/v1/replication/status":
		s.handleReplStatus(w, r)
	case "/v1/replication/promote":
		s.handleReplPromote(w, r)
	case "/v1/replication/demote":
		s.handleReplDemote(w, r)
	default:
		writeError(w, &httpError{http.StatusNotFound, "unknown replication endpoint"})
	}
}

// handleReplSnapshot streams a point-in-time snapshot for replica
// bootstrap; the meta frame carries the sequence floor the replica then
// streams from.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, &httpError{http.StatusMethodNotAllowed, "GET only"})
		return
	}
	db, err := s.replStore(r)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-store")
	// Errors past this point cut the stream; the replica detects the
	// truncation through the missing end frame.
	dw := &deadlineWriter{w: w, rc: http.NewResponseController(w)}
	if _, _, err := db.ExportSnapshot(dw); err != nil {
		return
	}
}

// handleReplStream serves the live ordered feed: a SubscribeFrom
// subscription rendered as JSON frames, heartbeating the primary's
// LastSeq while idle. A floor older than the fan-out ring answers 410
// Gone — the replica must re-bootstrap from /v1/replication/snapshot
// first.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, &httpError{http.StatusMethodNotAllowed, "GET only"})
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeError(w, badRequest("invalid from sequence %q", r.URL.Query().Get("from")))
		return
	}
	name := r.URL.Query().Get("id")
	if name == "" {
		name = r.RemoteAddr
	}
	db, err := s.replStore(r)
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, &httpError{http.StatusInternalServerError, "streaming unsupported"})
		return
	}
	sub, err := db.SubscribeFrom("replica:"+name, from)
	if err != nil {
		if errors.Is(err, commitlog.ErrSeqTruncated) {
			writeJSON(w, http.StatusGone, map[string]string{"error": err.Error()})
			return
		}
		writeError(w, err)
		return
	}
	defer sub.Cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	// The per-write deadline is load-bearing: this stream feeds a
	// Block-policy subscription, so without it a stalled-but-open peer
	// would fill the fan-out ring and wedge the primary's write path.
	enc := json.NewEncoder(&deadlineWriter{w: w, rc: http.NewResponseController(w)})
	// buf is reused across batches (Encode serializes before the next
	// conversion): this pump is the hot path feeding an attached
	// replica, one conversion per committed batch.
	buf := make([]wal.Record, 0, 256)
	send := func(f replication.Frame) bool {
		f.LastSeq = db.LastSeq()
		f.At = time.Now().UnixNano()
		if err := enc.Encode(f); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !send(replication.Frame{}) { // greeting heartbeat: position check
		return
	}
	heartbeat := time.NewTicker(replStreamHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case batch, ok := <-sub.Events():
			if !ok {
				return // store closed
			}
			buf = replication.AppendRecords(buf[:0], batch)
			if !send(replication.Frame{Recs: buf}) {
				return
			}
		case <-heartbeat.C:
			if !send(replication.Frame{}) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// ReplicationRole is the /v1/replication/status body for a primary (a
// replica answers with one replication.Status per shard instead). A
// fenced ex-primary reports role "demoted" with its successor in Primary.
type ReplicationRole struct {
	Role string `json:"role"`
	// LastSeq is the highest shard sequence; ShardLastSeqs the per-shard
	// vector (shard Seq spaces are independent).
	LastSeq       uint64   `json:"lastSeq"`
	ShardLastSeqs []uint64 `json:"shardLastSeqs"`
	// Primary is the successor a demoted node advertises.
	Primary string `json:"primary,omitempty"`
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, &httpError{http.StatusMethodNotAllowed, "GET only"})
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	if reps := s.ShardReplicas(); len(reps) > 0 {
		statuses := make([]replication.Status, len(reps))
		for i, rep := range reps {
			statuses[i] = rep.Status()
		}
		writeJSON(w, http.StatusOK, statuses)
		return
	}
	seqs := s.router.LastSeqs()
	role := ReplicationRole{Role: "primary", LastSeq: slices.Max(seqs), ShardLastSeqs: seqs}
	if fenced := s.fencedPrimary(); fenced != "" {
		role.Role = string(replication.StateDemoted)
		role.Primary = fenced
	}
	writeJSON(w, http.StatusOK, role)
}

// PromoteOutcome is one shard follower's promote result.
type PromoteOutcome struct {
	Shard int `json:"shard"`
	// Changed is false when the shard was already promoted — the signal
	// that distinguishes a fresh flip from an idempotent re-delivery
	// (e.g. a coordinator retrying after a crash mid-promote).
	Changed bool              `json:"changed"`
	State   replication.State `json:"state"`
	LastSeq uint64            `json:"lastSeq"`
}

// PromoteResponse is the body of POST /v1/replication/promote.
type PromoteResponse struct {
	Promoted bool   `json:"promoted"`
	Changed  bool   `json:"changed"`
	LastSeq  uint64 `json:"lastSeq"`
	// Shards carries the outcome of every shard the request covered. A
	// whole-node promote that crashes mid-loop leaves a visible partial
	// state here — re-POSTing is safe (promotes are idempotent) and the
	// outcomes show exactly which shards flipped when.
	Shards []PromoteOutcome `json:"shards"`
}

// handleReplPromote promotes this node's followers to writable
// primaries. ?shard=i promotes a single shard (the failover
// coordinator's per-shard path); without it every shard flips, with a
// per-shard outcome reported for each so a mid-promote crash cannot
// produce silent split-brain. All paths are idempotent.
func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &httpError{http.StatusMethodNotAllowed, "POST only"})
		return
	}
	reps := s.ShardReplicas()
	if len(reps) == 0 {
		writeError(w, &httpError{http.StatusConflict, "not a replica"})
		return
	}
	sel, err := shardParam(r, len(reps))
	if err != nil {
		writeError(w, err)
		return
	}
	oldPrimary := reps[0].Status().Primary
	resp := PromoteResponse{Promoted: true}
	for i, rep := range reps {
		if sel >= 0 && i != sel {
			continue
		}
		changed := rep.Promote()
		st := rep.Status()
		resp.Shards = append(resp.Shards, PromoteOutcome{Shard: i, Changed: changed, State: st.State, LastSeq: st.LastSeq})
		resp.Changed = resp.Changed || changed
	}
	resp.LastSeq = slices.Max(s.router.LastSeqs())
	if s.allShardsPromoted() {
		s.noteSelfPromoted(oldPrimary)
	}
	writeJSON(w, http.StatusOK, resp)
}

// replicaStatus reports the node's replica view: the worst bound across
// the shard followers still following (a read may have touched any of
// them). A promoted shard is a primary again and bounds nothing; its
// status stands for the node only when every shard is promoted. ok is
// false on a primary (no replicas attached).
func (s *Server) replicaStatus() (st replication.Status, ok bool) {
	reps := s.ShardReplicas()
	if len(reps) == 0 {
		return replication.Status{}, false
	}
	st = reps[0].Status()
	for _, rep := range reps[1:] {
		cur := rep.Status()
		if cur.State == replication.StatePromoted {
			continue
		}
		if st.State == replication.StatePromoted {
			st = cur
			continue
		}
		// -1 (unknown) dominates any numeric bound: the node can only
		// prove what its least-proven shard can — unknown must never
		// aggregate as "fresher than 0".
		if cur.StalenessMs < 0 || (st.StalenessMs >= 0 && cur.StalenessMs > st.StalenessMs) {
			st.StalenessMs = cur.StalenessMs
		}
		if cur.LagSeq > st.LagSeq {
			st.LagSeq = cur.LagSeq
		}
		// Mixed per-shard states collapse to the least-caught-up one
		// for the header; the status endpoint has the detail.
		if stateRank(cur.State) > stateRank(st.State) {
			st.State = cur.State
		}
	}
	return st, true
}

// stateRank orders follower states from most to least caught up, so a
// mixed-state node (one shard streaming, another re-bootstrapping)
// collapses to the conservative one for admission and headers.
func stateRank(st replication.State) int {
	switch st {
	case replication.StateStreaming:
		return 0
	case replication.StateBootstrapping:
		return 1
	case replication.StateConnecting:
		return 2
	default: // stopped, demoted, unknown
		return 3
	}
}

// replicaStatusFor is replicaStatus scoped to the shard owning a record:
// record reads admit against the owning follower's own bound, so one
// lagging (or unknown-staleness) shard doesn't 412 reads of keys another
// shard serves provably fresh — and, mid-failover, a shard already
// promoted on this node admits its keys while its siblings still follow.
func (s *Server) replicaStatusFor(id string) (replication.Status, bool) {
	if id != "" {
		if reps := s.ShardReplicas(); len(reps) > 0 {
			sh := s.router.ShardFor(id)
			if sh >= 0 && sh < len(reps) && reps[sh] != nil {
				return reps[sh].Status(), true
			}
		}
	}
	return s.replicaStatus()
}

// servingAsReplica reports whether reads served right now come from a
// following replica (a promoted replica is a primary again).
func (s *Server) servingAsReplica() bool {
	st, ok := s.replicaStatus()
	return ok && st.State != replication.StatePromoted
}

// addReplicaHeaders stamps a read response with the serving follower's
// staleness bound, so clients of a replica know how far behind the
// primary their read may be (the paper's Δ-atomicity reporting, extended
// to replica reads). A record read (id != "") is annotated by the shard
// owning the record — it was admitted per shard — and also carries that
// store's applied sequence, the value a client compares its
// read-your-writes floor against; every other response carries the
// node-wide worst case. A promoted shard is a primary again and stamps
// nothing, and so does a node whose shards are all promoted.
func (s *Server) addReplicaHeaders(w http.ResponseWriter, id string) {
	st, ok := s.replicaStatusFor(id)
	if !ok || st.State == replication.StatePromoted {
		return
	}
	h := w.Header()
	h.Set("X-Quaestor-Replica", string(st.State))
	if st.StalenessMs >= 0 {
		h.Set("X-Quaestor-Staleness-Ms", fmt.Sprintf("%.0f", st.StalenessMs))
	}
	if st.LagSeq > 0 {
		h.Set("X-Quaestor-Replica-Lag", strconv.FormatUint(st.LagSeq, 10))
	}
	if id != "" {
		h.Set(HeaderAppliedSeq, strconv.FormatUint(s.router.StoreFor(id).LastSeq(), 10))
	}
}

// admitRead enforces the read-routing admission protocol on a
// replica-served read. A request carrying HeaderMaxStaleness (and
// optionally HeaderMinSeq for record reads) is rejected with 412
// Precondition Failed when this node cannot prove it meets the bound —
// the response carries the current staleness headers so the client can
// re-route to a fresher replica (or the primary) without parsing a body.
// Primaries (and promoted replicas) admit everything: they are the
// freshness ceiling. Returns false when the response has been written.
func (s *Server) admitRead(w http.ResponseWriter, r *http.Request, id string) bool {
	maxStr := r.Header.Get(HeaderMaxStaleness)
	minStr := r.Header.Get(HeaderMinSeq)
	if maxStr == "" && minStr == "" {
		return true
	}
	st, ok := s.replicaStatusFor(id)
	if !ok {
		// A fenced ex-primary stopped receiving writes the moment its
		// replicas were promoted; it cannot prove any staleness bound.
		if maxStr != "" && s.fencedPrimary() != "" {
			s.stalenessRejects.Add(1)
			writeJSON(w, http.StatusPreconditionFailed, map[string]string{"error": "node is a demoted primary; staleness unbounded"})
			return false
		}
		return true
	}
	if st.State == replication.StatePromoted {
		return true
	}
	reject := func(reason string) bool {
		s.stalenessRejects.Add(1)
		s.addReplicaHeaders(w, id)
		writeJSON(w, http.StatusPreconditionFailed, map[string]string{"error": reason})
		return false
	}
	if maxStr != "" {
		bound, err := strconv.ParseFloat(maxStr, 64)
		if err == nil {
			if st.StalenessMs < 0 {
				return reject("replica staleness not yet bounded")
			}
			if st.StalenessMs > bound {
				return reject(fmt.Sprintf("replica staleness %.0fms exceeds bound %.0fms", st.StalenessMs, bound))
			}
		}
	}
	if minStr != "" && id != "" {
		minSeq, err := strconv.ParseUint(minStr, 10, 64)
		if err == nil && s.router.StoreFor(id).LastSeq() < minSeq {
			return reject(fmt.Sprintf("replica applied seq %d behind required %d", s.router.StoreFor(id).LastSeq(), minSeq))
		}
	}
	return true
}
