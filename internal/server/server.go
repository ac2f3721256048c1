// Package server implements the Quaestor DBaaS middleware (Figure 3): the
// data layer that answers CRUD operations and queries over HTTP with
// cache-coherent TTLs, maintains the Expiring Bloom Filter, registers
// cached queries in InvaliDB, and purges invalidation-based caches when
// results become stale.
package server

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"quaestor/internal/cluster"
	"quaestor/internal/commitlog"
	"quaestor/internal/coordinator"
	"quaestor/internal/document"
	"quaestor/internal/ebf"
	"quaestor/internal/invalidb"
	"quaestor/internal/query"
	"quaestor/internal/replication"
	"quaestor/internal/store"
	"quaestor/internal/ttl"
)

// CacheMode selects which caching headers the server emits — the paper's
// evaluation baselines (Figure 8a) map directly onto these modes.
type CacheMode int

const (
	// ModeFull emits both max-age (browser/ISP) and s-maxage (CDN) — full
	// Quaestor.
	ModeFull CacheMode = iota
	// ModeCDNOnly emits s-maxage with max-age=0: results cache in
	// invalidation-based tiers but not in clients ("CDN only" baseline).
	ModeCDNOnly
	// ModeClientOnly emits max-age without s-maxage: results cache in the
	// browser, nothing shared ("EBF only" baseline).
	ModeClientOnly
	// ModeUncached emits no-store everywhere (the uncached Orestes
	// baseline).
	ModeUncached
)

// String implements fmt.Stringer.
func (m CacheMode) String() string {
	switch m {
	case ModeFull:
		return "quaestor"
	case ModeCDNOnly:
		return "cdn-only"
	case ModeClientOnly:
		return "client-only"
	case ModeUncached:
		return "uncached"
	default:
		return fmt.Sprintf("CacheMode(%d)", int(m))
	}
}

// RepresentationPolicy selects how query results are materialized.
type RepresentationPolicy int

const (
	// RepCostBased applies the paper's cost model per query.
	RepCostBased RepresentationPolicy = iota
	// RepAlwaysObjects always serves full object-lists.
	RepAlwaysObjects
	// RepAlwaysIDs always serves id-lists.
	RepAlwaysIDs
)

// Purger is an invalidation-based cache the server can purge
// asynchronously (CDNs, reverse proxies).
type Purger interface {
	// PurgeKey removes the cached entry for a resource path.
	PurgeKey(path string)
}

// PurgerFunc adapts a function to the Purger interface.
type PurgerFunc func(path string)

// PurgeKey implements Purger.
func (f PurgerFunc) PurgeKey(path string) { f(path) }

// Options configures a Server.
type Options struct {
	// Mode selects the caching baseline (default ModeFull).
	Mode CacheMode
	// Representation selects the result materialization policy.
	Representation RepresentationPolicy
	// TTL tunes the estimator. Nil uses defaults.
	TTL *ttl.Config
	// EBF tunes the filter. Nil uses defaults (14.6 KB, k=4).
	EBF *ebf.Options
	// InvaliDB sizes the invalidation cluster. Nil: 1×1 grid. Its MaxQueries
	// is the capacity of the active list, the one bound on cached queries.
	InvaliDB *invalidb.Config
	// Clock supplies time (default time.Now).
	Clock func() time.Time
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Clock == nil {
		out.Clock = time.Now
	}
	return out
}

// activeListPartitions shards the active list's locks.
const activeListPartitions = 16

// Stats aggregates server activity.
type Stats struct {
	Reads            uint64
	Queries          uint64
	Writes           uint64
	Revalidations    uint64
	QueryActivations uint64
	Invalidations    uint64
	Purges           uint64
	RejectedQueries  uint64 // not admitted to caching
	ActiveQueries    int    // active-list occupancy: queries cached and matched now
	QueryEvictions   uint64 // entries displaced from the active list
	// Access-plan choices made by the query planner, so Figure-8-style
	// experiments can attribute query latency to the path taken.
	PlanProbes uint64 // hash-index equality/IN/CONTAINS probes
	PlanRanges uint64 // ordered-index range scans
	PlanScans  uint64 // full table scans
	// Streaming-executor totals: documents the executor evaluated vs rows
	// it actually emitted. Their ratio is the measured selectivity of the
	// chosen access paths — the signal that validates the planner's simple
	// cost model against reality.
	RowsExamined uint64
	RowsReturned uint64
	// Read-routing tier accounting: reads+queries this node served while
	// acting as a following replica vs as a primary, and admission
	// rejections (412: the requested staleness bound could not be met
	// here). Together with the client SDK's ReadsByTier these measure —
	// rather than infer — how much of the read load the replica tier
	// absorbs.
	ServedPrimary    uint64
	ServedReplica    uint64
	StalenessRejects uint64
	// ReplicatedWrites counts write events the coherence pump consumed
	// from the local pipeline while following a primary; each feeds the
	// TTL estimator and the EBF exactly like an HTTP write would on the
	// primary.
	ReplicatedWrites uint64
}

// Server is the Quaestor middleware instance.
type Server struct {
	opts Options
	// router is the data plane: N ≥ 1 shard stores behind one shard map.
	router *cluster.Router
	coh    *ebf.Partitioned
	est    *ttl.Estimator
	// active is the only record of a cached query: an entry is resident
	// exactly while the query is registered in inv (see Query and retire).
	active *ttl.ActiveList
	inv    *invalidb.Cluster
	// purgers is copy-on-write (AddPurger is start-up time), so the write
	// path reads it without a lock.
	purgers atomic.Pointer[[]Purger]

	// mu guards the control plane: subscribers, coherence pumps, the
	// coordinator, and writers of purgers and role. No request on the data
	// path (record and query GETs, writes, /v1/ebf) takes it.
	mu          sync.Mutex
	subscribers map[string]map[int]chan invalidb.Notification
	nextSubID   int
	// closed is set once by Close; the read path checks it without mu.
	closed atomic.Bool

	schemas *schemaRegistry
	auth    authorizer

	// role is what every request asks about this node's place in the
	// deployment, published copy-on-write (updateRole) so the data path
	// reads it with one atomic load.
	role atomic.Pointer[nodeRole]
	// cohCancels stops the coherence pumps started by AttachReplicas
	// (guarded by mu).
	cohCancels []func()
	// coord is the attached failover coordinator (AttachCoordinator),
	// nil on nodes that don't supervise. Guarded by mu.
	coord *coordinator.Coordinator

	detachStore func()
	notifyDone  chan struct{}

	reads            atomic.Uint64
	queries          atomic.Uint64
	writes           atomic.Uint64
	revalidations    atomic.Uint64
	queryActivations atomic.Uint64
	invalidations    atomic.Uint64
	purges           atomic.Uint64
	rejected         atomic.Uint64
	evictions        atomic.Uint64
	planProbes       atomic.Uint64
	planRanges       atomic.Uint64
	planScans        atomic.Uint64
	rowsExamined     atomic.Uint64
	rowsReturned     atomic.Uint64
	sseDropped       atomic.Uint64
	servedPrimary    atomic.Uint64
	servedReplica    atomic.Uint64
	stalenessRejects atomic.Uint64
	replWrites       atomic.Uint64
	// ebfGen is the Unix-nanosecond timestamp of the EBF's newest
	// mutation, piggybacked on read responses (HeaderEBFGenerated) so
	// clients can warm their invalidation state from the serving tier.
	ebfGen atomic.Int64
}

// nodeRole is one immutable snapshot of the node's replication role and
// advertised topology. A change publishes a new snapshot; slices in a
// published snapshot are never written again.
type nodeRole struct {
	// replicas holds the per-shard follower loops of a log-shipping
	// replica (index = shard; see AttachReplicas), nil on a primary.
	replicas []*replication.Replica
	// advPrimary/advReplicas is the read topology advertised on
	// GET /v1/cluster/replicas.
	advPrimary  string
	advReplicas []string
	// selfURL is this node's own advertised base URL (SetSelfURL); it
	// lets a promoted replica advertise itself as the new primary.
	selfURL string
	// fencedTo is non-empty once this node has been demoted
	// (POST /v1/replication/demote): the successor primary every 503
	// advertises.
	fencedTo string
}

// updateRole publishes the current role with change applied.
func (s *Server) updateRole(change func(*nodeRole)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := *s.role.Load()
	change(&next)
	s.role.Store(&next)
}

// New assembles a server around an existing document store: the 1-shard
// case of NewCluster. The caller keeps ownership of db.
func New(db *store.Store, opts *Options) *Server {
	return NewCluster(cluster.Wrap(db), opts)
}

// NewCluster assembles a server over a shard router. The server owns an
// InvaliDB cluster attached to every shard's ordered change stream; the
// router stays the caller's to close.
func NewCluster(router *cluster.Router, opts *Options) *Server {
	o := opts.withDefaults()
	ebfOpts := o.EBF
	if ebfOpts == nil {
		ebfOpts = &ebf.Options{}
	}
	if ebfOpts.Clock == nil {
		ebfOpts.Clock = o.Clock
	}
	ttlCfg := o.TTL
	if ttlCfg == nil {
		ttlCfg = &ttl.Config{}
	}
	if ttlCfg.Clock == nil {
		ttlCfg.Clock = o.Clock
	}
	invCfg := o.InvaliDB
	if invCfg == nil {
		invCfg = &invalidb.Config{}
	}
	if invCfg.Clock == nil {
		invCfg.Clock = o.Clock
	}
	if router.NumShards() > 1 {
		// The paper's query×object matrix keyed off the shard map: one
		// object-partition row per shard, placed by the same consistent
		// hash that routes writes, so each row consumes exactly one
		// shard's ordered change stream. One shard keeps the configured
		// rows with hash placement: they all follow the one stream.
		cp := *invCfg
		cp.ObjectPartitions = router.NumShards()
		cp.Placement = router.Map().Shard
		invCfg = &cp
	}

	s := &Server{
		opts:       o,
		router:     router,
		coh:        ebf.NewPartitioned(ebfOpts),
		est:        ttl.NewEstimator(ttlCfg),
		active:     ttl.NewActiveList(activeListPartitions, invCfg.MaxQueries, o.Clock),
		inv:        invalidb.NewCluster(invCfg),
		schemas:    newSchemaRegistry(),
		notifyDone: make(chan struct{}),
	}
	s.role.Store(&nodeRole{})
	s.active.OnEvict = s.retire
	// Every shard's ordered stream feeds the grid; each pump tracks its
	// own shard's Seq space, so per-shard order assertions hold.
	cancels := make([]func(), 0, router.NumShards())
	for _, st := range router.Stores() {
		cancels = append(cancels, s.inv.AttachStore(st))
	}
	s.detachStore = func() {
		for _, c := range cancels {
			c()
		}
	}
	go s.notificationLoop()
	return s
}

// Close stops the invalidation pipeline. The shard stores stay open
// (callers own them).
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	cohCancels := s.cohCancels
	s.cohCancels = nil
	s.mu.Unlock()
	for _, c := range cohCancels {
		c()
	}
	s.detachStore()
	s.inv.Stop()
	<-s.notifyDone
	s.mu.Lock()
	for key, m := range s.subscribers {
		for id, ch := range m {
			delete(m, id)
			close(ch)
		}
		delete(s.subscribers, key)
	}
	s.mu.Unlock()
}

// Estimator exposes the TTL estimator (for the evaluation harness).
func (s *Server) Estimator() *ttl.Estimator { return s.est }

// ActiveList exposes the active query registry.
func (s *Server) ActiveList() *ttl.ActiveList { return s.active }

// InvaliDB exposes the invalidation cluster.
func (s *Server) InvaliDB() *invalidb.Cluster { return s.inv }

// AddPurger registers an invalidation-based cache for purge fan-out.
func (s *Server) AddPurger(p Purger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var next []Purger
	if cur := s.purgers.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, p)
	s.purgers.Store(&next)
}

// Stats returns a snapshot of activity counters.
func (s *Server) Stats() Stats {
	return Stats{
		Reads:            s.reads.Load(),
		Queries:          s.queries.Load(),
		Writes:           s.writes.Load(),
		Revalidations:    s.revalidations.Load(),
		QueryActivations: s.queryActivations.Load(),
		Invalidations:    s.invalidations.Load(),
		Purges:           s.purges.Load(),
		RejectedQueries:  s.rejected.Load(),
		ActiveQueries:    s.active.Len(),
		QueryEvictions:   s.evictions.Load(),
		PlanProbes:       s.planProbes.Load(),
		PlanRanges:       s.planRanges.Load(),
		PlanScans:        s.planScans.Load(),
		RowsExamined:     s.rowsExamined.Load(),
		RowsReturned:     s.rowsReturned.Load(),
		ServedPrimary:    s.servedPrimary.Load(),
		ServedReplica:    s.servedReplica.Load(),
		StalenessRejects: s.stalenessRejects.Load(),
		ReplicatedWrites: s.replWrites.Load(),
	}
}

// CreateIndex builds a secondary index on every shard; subsequent queries
// sargable on the path route through it.
func (s *Server) CreateIndex(table, path string) error {
	return s.router.CreateIndex(table, path)
}

// Indexes lists a table's indexed field paths.
func (s *Server) Indexes(table string) ([]string, error) {
	return s.router.Indexes(table)
}

// recordPlan attributes one query execution to its plan choice and folds
// the execution report's row counters into the running totals.
func (s *Server) recordPlan(plan query.Plan) {
	switch plan.Kind {
	case query.PlanProbe:
		s.planProbes.Add(1)
	case query.PlanRange:
		s.planRanges.Add(1)
	default:
		s.planScans.Add(1)
	}
	s.rowsExamined.Add(uint64(plan.RowsExamined))
	s.rowsReturned.Add(uint64(plan.RowsReturned))
}

// RecordKey is the EBF/cache key of a record.
func RecordKey(table, id string) string { return table + "/" + id }

// RecordPath is the REST resource path of a record: recordPrefix followed
// by its RecordKey.
func RecordPath(table, id string) string { return recordPrefix + table + "/" + id }

// recordPrefix is what a record's RecordPath puts before its RecordKey.
const recordPrefix = "/v1/db/"

// EBFSnapshot returns the current aggregated filter for piggybacking.
func (s *Server) EBFSnapshot() ebf.Snapshot {
	return s.coh.Snapshot()
}

// EBFStats returns the filter's activity counters (the "ebf" section of
// /v1/stats).
func (s *Server) EBFStats() ebf.Stats { return s.coh.Stats() }

// ReadResult carries a record read plus its caching metadata.
type ReadResult struct {
	Doc  *document.Document
	TTL  time.Duration
	ETag string
}

// Read serves a record with its estimated TTL and reports the issued
// expiration to the EBF. The document is the stored one, read-only.
func (s *Server) Read(table, id string) (ReadResult, error) {
	doc, err := s.router.Get(table, id)
	if err != nil {
		return ReadResult{}, err
	}
	s.reads.Add(1)
	key := RecordKey(table, id)
	dur := s.recordTTL(key)
	if s.cacheable() && dur > 0 {
		s.coh.ReportRead(key, dur)
	}
	return ReadResult{Doc: doc, TTL: dur, ETag: ETagFor(doc.Version)}, nil
}

func (s *Server) recordTTL(key string) time.Duration {
	if !s.cacheable() {
		return 0
	}
	return s.est.RecordTTL(key)
}

func (s *Server) cacheable() bool { return s.opts.Mode != ModeUncached }

// ETagFor is the validator of a record at version: the one rule every
// cache holding a copy of the record revalidates it by.
func ETagFor(version int64) string { return `"v` + strconv.FormatInt(version, 10) + `"` }

// QueryResult carries a query response plus its caching metadata.
type QueryResult struct {
	// Docs is populated for object-list results; IDs always holds the
	// ordered record ids.
	Docs           []*document.Document
	IDs            []string
	Representation ttl.Representation
	TTL            time.Duration
	ETag           string
	// Cacheable is false when admission control rejected the query; the
	// HTTP layer then emits no-store.
	Cacheable bool
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("server: closed")

// Query evaluates q, decides its representation and TTL, registers it for
// invalidation detection and reports the issued TTL to the EBF — steps (2)
// in the end-to-end example of Figure 7.
//
// The active list decides everything about the query's cached life in one
// call: a resident entry is refreshed; a new query is admitted only if the
// list has room or a lower-value resident to evict (retire), and is
// activated in InvaliDB before its entry becomes visible. So the result is
// Cacheable only while the query is registered in InvaliDB, and a query
// that is not admitted — or any query in ModeUncached — leaves no state
// behind. The documents in the result are the stored ones, read-only.
func (s *Server) Query(q *query.Query) (QueryResult, error) {
	return s.query(q, "")
}

// query is Query for a request served under the resource path servedAs,
// which the active list remembers as what an invalidation must purge.
func (s *Server) query(q *query.Query, servedAs string) (QueryResult, error) {
	// Capture the change-stream position before evaluating so activation
	// can replay the gap (one floor per shard: Seq spaces are independent).
	asOfs := s.router.LastSeqs()
	docs, err := s.evaluate(q)
	if err != nil {
		return QueryResult{}, err
	}

	key := q.Key()
	ids := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
	}
	res := QueryResult{Docs: docs, IDs: ids, ETag: resultETag(q, docs)}

	if !s.cacheable() {
		res.Representation = ttl.ObjectList
		return res, nil
	}

	// Per-record cache keys feed the TTL estimator, admission control and
	// the EBF — work the non-cacheable early return above never needs. The
	// query key leads the same slice, so the EBF report below is one batch.
	reported := make([]string, 1+len(docs))
	reported[0] = key
	recordKeys := reported[1:]
	for i, d := range docs {
		recordKeys[i] = RecordKey(q.Table, d.ID)
	}

	changeRate, dur := s.est.QueryEstimate(key, recordKeys)
	rep := s.opts.Representation.Choose(len(recordKeys), changeRate)
	res.Representation = rep
	admitted, err := s.active.Register(ttl.Entry{
		QueryKey:       key,
		Path:           servedAs,
		TTL:            dur,
		ResultKeys:     recordKeys,
		Representation: rep,
	}, func() error {
		// InvaliDB needs the full predicate-level match set. Without window
		// clauses that is the result just computed; a stateful query's
		// window is not, so it gets its own unwindowed evaluation.
		if !q.Stateful() {
			return s.activate(q, docs, asOfs, rep)
		}
		matches, err := s.unwindowedMatches(q)
		if err != nil {
			return err
		}
		return s.activate(q, matches, asOfs, rep)
	})
	if errors.Is(err, commitlog.ErrSeqTruncated) {
		// More was written between evaluation and activation than the
		// change ring holds: InvaliDB could not be brought up to date with
		// this result, so it is served but not cached.
		admitted, err = false, nil
	}
	if err != nil {
		return QueryResult{}, err
	}
	if !admitted {
		s.rejected.Add(1)
		return res, nil
	}

	if rep != ttl.ObjectList {
		// Only object lists put per-record entries into caches (reads of
		// members get hits "by side effect"); an id list is covered by the
		// query key alone.
		reported = reported[:1]
	}
	s.coh.ReportReads(dur, reported...)
	res.TTL = dur
	res.Cacheable = true
	return res, nil
}

// evaluate runs q on the executor and records its plan and row counters:
// the prologue Query and the NDJSON stream share. The documents are the
// stored ones, read-only.
func (s *Server) evaluate(q *query.Query) ([]*document.Document, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	docs, plan, err := s.router.QueryPlanned(q)
	if err != nil {
		return nil, err
	}
	s.recordPlan(plan)
	s.queries.Add(1)
	return docs, nil
}

// Choose applies the policy to a result of resultSize records whose write
// rates sum to changeRate.
func (p RepresentationPolicy) Choose(resultSize int, changeRate float64) ttl.Representation {
	switch p {
	case RepAlwaysObjects:
		return ttl.ObjectList
	case RepAlwaysIDs:
		return ttl.IDList
	}
	return ttl.ChooseRepresentation(ttl.RepresentationCost{
		ResultSize: resultSize,
		ChangeRate: changeRate,
		// Membership changes are a fraction of all writes; most updates
		// modify contained objects in place (the paper's change events).
		MembershipRate: changeRate * 0.3,
		RecordHitRate:  0.8,
	})
}

// unwindowedMatches evaluates q's predicate without window clauses: the
// match set a stateful registration starts from.
func (s *Server) unwindowedMatches(q *query.Query) ([]*document.Document, error) {
	return s.router.Query(query.New(q.Table, q.Predicate))
}

// activate registers the not yet activated query in InvaliDB; it runs as
// the active list's activation step. matches is the full predicate-level
// match set (for stateful queries the unwindowed set, see
// unwindowedMatches); asOfs is the per-shard sequence vector captured
// before the evaluation.
func (s *Server) activate(q *query.Query, matches []*document.Document, asOfs []uint64, rep ttl.Representation) error {
	mask := invalidb.MaskObjectList
	if rep == ttl.IDList {
		mask = invalidb.MaskIDList
	}
	// Each shard's replay closes that shard's activation gap; the per-row
	// floors in AsOfSeqs gate replay per shard. InvaliDB reads it once
	// the query is installed, so no event falls between the two. A gap a
	// shard's ring no longer covers fails the activation with
	// commitlog.ErrSeqTruncated.
	readReplay := func() ([]store.ChangeEvent, error) {
		var replay []store.ChangeEvent
		for i, st := range s.router.Stores() {
			evs, err := st.Replay(q.Table, asOfs[i])
			if err != nil {
				return nil, err
			}
			replay = append(replay, evs...)
		}
		return replay, nil
	}
	err := s.inv.Activate(invalidb.Registration{
		Query:          q,
		Mask:           mask,
		InitialMatches: matches,
		// The fallback floor for grid rows beyond the vector: only a 1-shard
		// node has any (its configured rows all follow the one store).
		AsOfSeq:    asOfs[0],
		AsOfSeqs:   asOfs,
		ReadReplay: readReplay,
	})
	if err != nil {
		return err
	}
	s.queryActivations.Add(1)
	return nil
}

// retire ends the cached life of a query the active list evicted: out of
// InvaliDB, its EWMA forgotten. The list calls it under its admission
// lock, so it cannot land after a re-activation of the same key. Copies
// served under a TTL that has not run out are now matched by nothing, so
// they are invalidated like any stale result: flagged in the EBF for the
// rest of that TTL and purged.
func (s *Server) retire(e ttl.Entry) {
	s.evictions.Add(1)
	s.inv.Deactivate(e.QueryKey)
	s.est.Forget(e.QueryKey)
	remaining := e.LastReadAt.Add(e.TTL).Sub(s.opts.Clock())
	// The evicted read's own EBF report may still be on its way (Query
	// reports after Register); reporting for it first makes the flag cover it.
	s.coh.ReportRead(e.QueryKey, remaining)
	if s.coh.ReportWrite(e.QueryKey) && e.Path != "" {
		s.schedulePurge(e.Path)
	}
}

// Insert writes a new document (after schema validation) and runs
// record-level invalidation. doc belongs to the store from then on
// (document.Document's ownership rule).
func (s *Server) Insert(table string, doc *document.Document) error {
	if err := s.validateDoc(table, doc); err != nil {
		return err
	}
	_, err := s.write(store.Write{Kind: store.WriteInsert, Table: table, ID: doc.ID, Doc: doc})
	return err
}

// Put upserts a full document (after schema validation) and runs
// record-level invalidation. doc belongs to the store from then on, as
// for Insert.
func (s *Server) Put(table string, doc *document.Document) error {
	if err := s.validateDoc(table, doc); err != nil {
		return err
	}
	_, err := s.write(store.Write{Kind: store.WritePut, Table: table, ID: doc.ID, Doc: doc})
	return err
}

// Update applies a partial update and runs record-level invalidation.
func (s *Server) Update(table, id string, spec store.UpdateSpec) (*document.Document, error) {
	doc, err := s.write(store.Write{Kind: store.WriteUpdate, Table: table, ID: id, Spec: spec})
	if err != nil {
		return nil, err
	}
	return doc, nil
}

// Delete removes a document and runs record-level invalidation.
func (s *Server) Delete(table, id string) error {
	doc, err := s.write(store.Write{Kind: store.WriteDelete, Table: table, ID: id})
	if err == nil && doc == nil {
		return fmt.Errorf("%w: %s/%s", store.ErrNotFound, table, id)
	}
	return err
}

// write applies one write as a unit and returns its After.
func (s *Server) write(w store.Write) (*document.Document, error) {
	ws := []store.Write{w}
	err := s.apply(ws)
	return ws[0].After, err
}

// apply commits writes through the router, then counts the records
// readers can see and runs their record-level bookkeeping
// (observeWrites), also when the call failed: a refused unit sets no
// After, but one whose WAL group failed after it was installed keeps
// them. Query-level invalidation arrives asynchronously from InvaliDB.
func (s *Server) apply(writes []store.Write) error {
	err := s.router.Apply(writes)
	keys := make([]string, 0, len(writes))
	for i := range writes {
		if writes[i].After != nil {
			keys = append(keys, RecordKey(writes[i].Table, writes[i].ID))
		}
	}
	s.writes.Add(uint64(len(keys)))
	s.observeWrites(keys)
	return err
}

// observeWrites is the bookkeeping every write to a record takes, whether
// it arrives over HTTP or through replication: the TTL estimator's write
// rate, the EBF flag (and the purge of invalidation-based caches when the
// record may still be cached) and the EBF generation stamp. It takes each
// lock once for all keys; the estimator and the EBF each read their own
// clock once.
func (s *Server) observeWrites(keys []string) {
	if len(keys) == 0 {
		return
	}
	s.est.ObserveWrites(keys)
	for _, i := range s.coh.ReportWrites(keys) {
		s.schedulePurge(recordPrefix + keys[i]) // the record's RecordPath
	}
	s.ebfGen.Store(s.opts.Clock().UnixNano())
}

// followCoherence subscribes to one store's ordered change stream and
// feeds every replicated write into the TTL estimator and the EBF — the
// same bookkeeping apply does on the HTTP write path, which a
// replica's writes never take (they arrive through replication), once per
// delivered batch. This is what makes replica-served Cache-Control TTLs
// hot/cold-aware and the replica's piggybacked EBF coherent. After a
// promote the HTTP write path and this pump both observe a write; the
// double-counted write rate only shortens TTL estimates, the conservative
// direction.
func (s *Server) followCoherence(st *store.Store, name string) {
	sub := st.SubscribeTail(name)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var keys []string
		for batch := range sub.Events() {
			keys = keys[:0]
			for i := range batch {
				if batch[i].After != nil { // DDL events carry no record key
					keys = append(keys, batch[i].Key())
				}
			}
			s.observeWrites(keys)
			s.replWrites.Add(uint64(len(keys)))
		}
	}()
	s.mu.Lock()
	s.cohCancels = append(s.cohCancels, func() { sub.Cancel(); <-done })
	s.mu.Unlock()
}

// SetReplicaEndpoints advertises the deployment's read topology: the
// primary's base URL plus the replica endpoints clients may spread
// bounded reads across. Served on GET /v1/cluster/replicas; the
// quaestor-server binary populates it from -advertise-replicas.
func (s *Server) SetReplicaEndpoints(primary string, replicas []string) {
	replicas = append([]string(nil), replicas...)
	s.updateRole(func(r *nodeRole) {
		r.advPrimary = primary
		r.advReplicas = replicas
	})
}

// ReplicaEndpoints returns the advertised read topology.
func (s *Server) ReplicaEndpoints() (primary string, replicas []string) {
	r := s.role.Load()
	return r.advPrimary, append([]string(nil), r.advReplicas...)
}

// notificationLoop consumes InvaliDB events: every notification marks the
// query stale in the EBF, purges invalidation-based caches and feeds the
// observed actual TTL into the estimator's EWMA (Figure 7, step 4).
func (s *Server) notificationLoop() {
	defer close(s.notifyDone)
	for n := range s.inv.Notifications() {
		path := s.active.Invalidated(n.QueryKey, func(actual time.Duration) {
			s.est.ObserveInvalidation(n.QueryKey, actual)
		})
		if s.coh.ReportWrite(n.QueryKey) && path != "" {
			s.schedulePurge(path)
		}
		// Counted once the caches are told, so Settle can tell a handled
		// notification from one still on its way.
		s.invalidations.Add(1)
		s.fanOutToSubscribers(n)
	}
}

// Settle blocks until every write acknowledged so far has been matched
// by InvaliDB and every notification it emitted has been handled — EBF
// flagged, purges scheduled — or until timeout elapses, and reports
// whether the pipeline settled. A caller that settles after each write
// sees the invalidation pipeline as if it ran inline: the simulator does,
// to stay deterministic.
func (s *Server) Settle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if s.inv.Quiesce(0) {
			if _, emitted := s.inv.Stats(); s.invalidations.Load() == emitted {
				return true
			}
		}
		if !time.Now().Before(deadline) {
			return false
		}
		runtime.Gosched()
	}
}

func (s *Server) schedulePurge(path string) {
	purgers := s.purgers.Load()
	if purgers == nil {
		return
	}
	for _, p := range *purgers {
		p.PurgeKey(path)
	}
	s.purges.Add(1)
}

// resultETag derives a deterministic version tag for a query result from
// the member versions: FNV-1a over the query key, then each member's id
// and "#<version>".
func resultETag(q *query.Query, docs []*document.Document) string {
	h := fnvMix(1469598103934665603, q.Key()) // FNV offset basis
	var num [21]byte                          // '#' + the longest int64
	for _, d := range docs {
		h = fnvMix(h, d.ID)
		h = fnvMix(h, strconv.AppendInt(append(num[:0], '#'), d.Version, 10))
	}
	return `"q` + strconv.FormatUint(h, 16) + `"`
}

func fnvMix[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// CacheControl renders the response caching headers for the server's mode:
// (browserTTL, cdnTTL) pairs per mode as described on CacheMode.
func (s *Server) CacheControl(dur time.Duration) (browserTTL, cdnTTL time.Duration) {
	switch s.opts.Mode {
	case ModeFull:
		return dur, dur
	case ModeCDNOnly:
		return 0, dur
	case ModeClientOnly:
		return dur, 0
	default:
		return 0, 0
	}
}

// Mode returns the configured cache mode.
func (s *Server) Mode() CacheMode { return s.opts.Mode }
