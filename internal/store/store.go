// Package store implements Quaestor's underlying database: an in-memory
// document store standing in for one node of the paper's MongoDB cluster.
//
// The store provides exactly the substrate surface Quaestor needs from its
// database (Section 2 "Application model"): CRUD on rich nested documents,
// evaluation of MongoDB-style queries, per-key monotonic writes, and a
// change stream of write after-images that feeds the InvaliDB invalidation
// pipeline. A table is one lock, one document map and one index per
// indexed path. Partitioning by hashed primary key — the paper's
// evaluation setup ("documents were sharded through their hashed primary
// key") — happens one level up: internal/cluster routes across -shards N
// stores, each with its own WAL and pipeline.
//
// There is one write path: Store.Prepare and Unit.Install (Store.Apply)
// commit a unit of writes — one for Put, Insert, Update and Delete, a
// transaction's checks and writes for cluster.Router.Apply — by deciding
// each under the touched tables' locks, changing each
// document through one table mutation (table.swap), and taking the
// unit's place in the write order in one stamp section (Store.stamp),
// which makes queue order Seq order by construction — the WAL committer's
// hook and the in-memory flush append their units to the commit pipeline
// as they are, and a unit whose log group fails is simply never
// published.
// Change events carry the stored documents themselves (read-only, under
// document.Document's ownership rule).
package store

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"quaestor/internal/commitlog"
	"quaestor/internal/document"
	"quaestor/internal/index"
	"quaestor/internal/query"
	"quaestor/internal/wal"
)

// Common errors returned by store operations.
var (
	ErrNotFound      = errors.New("store: document not found")
	ErrExists        = errors.New("store: document already exists")
	ErrNoTable       = errors.New("store: table does not exist")
	ErrVersionCheck  = errors.New("store: version precondition failed")
	ErrClosed        = errors.New("store: store is closed")
	ErrEmptyID       = errors.New("store: document id must not be empty")
	ErrEmptyTable    = errors.New("store: table name must not be empty")
	ErrNilDocument   = errors.New("store: document must not be nil")
	ErrBadUpdateSpec = errors.New("store: invalid update specification")
	ErrNotDurable    = errors.New("store: store has no data dir (in-memory)")
)

// OpType identifies the kind of write that produced a change event. It
// lives in the commitlog package (the ordered commit pipeline owns the
// event vocabulary); the store re-exports it for its callers.
type OpType = commitlog.OpType

// Write operation kinds carried on the change stream.
const (
	OpInsert = commitlog.OpInsert
	OpUpdate = commitlog.OpUpdate
	OpDelete = commitlog.OpDelete
)

// ChangeEvent is one write's after-image as published on the change
// stream — an alias for commitlog.Event, the ordered pipeline's unit of
// delivery. For deletes, After carries the id with nil fields and
// Deleted is true.
type ChangeEvent = commitlog.Event

// Durability tunes the write-ahead log of a store opened with a DataDir.
type Durability struct {
	// Fsync selects the fsync policy (default wal.FsyncAlways).
	Fsync wal.FsyncPolicy
	// FsyncInterval bounds the sync lag under wal.FsyncInterval
	// (default 25ms).
	FsyncInterval time.Duration
	// SegmentBytes is the log's segment rotation threshold (default 8 MiB).
	SegmentBytes int64
}

// Options configures a Store.
type Options struct {
	// ChangeBuffer sizes the commit pipeline's fan-out ring — the one
	// history of recent change events, retained for subscriber catch-up
	// and for the replay that closes a query's activation gap — and each
	// flat subscription's channel buffer (default 4096). A query activated
	// across more events than the ring holds is not cached (see Replay).
	ChangeBuffer int
	// Clock supplies timestamps; defaults to time.Now. The Monte Carlo
	// simulator injects a virtual clock here.
	Clock func() time.Time
	// DataDir, when set, makes the store durable: every write is logged
	// to a segmented WAL under this directory before it is published on
	// the change stream, and Open recovers the previous state from the
	// latest snapshot plus the log tail. Empty keeps the store in-memory.
	DataDir string
	// Durability tunes the WAL when DataDir is set.
	Durability Durability
	// AutoSnapshotBytes, when positive on a durable store, triggers a
	// background Snapshot() once the WAL's on-disk size reaches this many
	// bytes, keeping the recovery replay bounded without operator action.
	// Zero leaves snapshots manual.
	AutoSnapshotBytes int64
}

func (o *Options) withDefaults() Options {
	out := Options{ChangeBuffer: 4096, Clock: time.Now}
	if o == nil {
		return out
	}
	if o.ChangeBuffer > 0 {
		out.ChangeBuffer = o.ChangeBuffer
	}
	if o.Clock != nil {
		out.Clock = o.Clock
	}
	out.DataDir = o.DataDir
	out.Durability = o.Durability
	out.AutoSnapshotBytes = o.AutoSnapshotBytes
	return out
}

// Store is a thread-safe document database: one node's tables, write
// order and change stream.
type Store struct {
	opts Options

	mu     sync.RWMutex
	tables map[string]*table
	closed bool

	// stampMu is the stamp section (see stamp): seq is only written under
	// it (atomic so LastSeq reads it lock-free), together with the hand-off
	// that fixes a unit's position — the WAL's commit queue, or on
	// in-memory stores the outbox of stamped, not yet published events,
	// with each unit's end offset in outboxEnds.
	stampMu    sync.Mutex
	seq        atomic.Uint64
	outbox     []ChangeEvent
	outboxEnds []int

	// pipeline is the fan-out log all change-stream consumers subscribe
	// to. pubMu serializes its three appenders — the WAL committer's
	// hook, flush and the snapshot import's synthetic diff — and is never
	// taken with a table lock or stampMu held. spare, spareEnds and
	// spareUnits are flush's second outbox and its unit list.
	pubMu      sync.Mutex
	pipeline   *commitlog.Log
	spare      []ChangeEvent
	spareEnds  []int
	spareUnits [][]ChangeEvent

	// wal is non-nil for durable stores (Options.DataDir set).
	wal *wal.Log
	// snapMu serializes snapshots; lastSnap/recovery hold durability
	// stats reported by DurabilityStats.
	snapMu   sync.Mutex
	lastSnap *SnapshotInfo
	recovery RecoveryInfo

	// Auto-snapshot machinery (Options.AutoSnapshotBytes).
	autoSnapBusy atomic.Bool
	autoSnaps    atomic.Uint64

	// readOnly marks an unpromoted replica: doc writes fail with
	// ErrReadOnly and state changes only through the replication apply
	// path (see replication.go).
	readOnly atomic.Bool
}

// table is one lock over one document map, its tombstones and one
// secondary index per indexed path.
type table struct {
	name string

	// mu guards every field below. Writes hold it for one swap; a query
	// holds the read lock from planning to its last emitted candidate, so
	// the index a plan names exists and is exactly consistent with docs.
	mu   sync.RWMutex
	docs map[string]*document.Document
	// tombs remembers the tombstone version of each id deleted from this
	// table and not re-created since; a document created under such an id
	// continues from it, so an id's versions never repeat across a delete
	// and (id, version) — the record ETag, and what a query ETag hashes —
	// names one content for the life of the table. The map is bounded:
	// at maxTombstones it is folded into verFloor, the version every new
	// document of this table starts above, which trades the exact
	// continuation for a jump and never the guarantee. Both are raised
	// inside the deleting write's critical section, which orders them
	// before any re-creation of the id.
	tombs    map[string]int64
	verFloor int64
	// indexes maps field path → secondary index over docs, maintained
	// inside every write's critical section.
	indexes map[string]*index.Field
}

// maxTombstones bounds table.tombs.
const maxTombstones = 65536

func newTable(name string) *table {
	return &table{name: name, docs: map[string]*document.Document{}, tombs: map[string]int64{}, indexes: map[string]*index.Field{}}
}

// bury records id's tombstone version. Caller holds t.mu.
func (t *table) bury(id string, version int64) {
	if len(t.tombs) >= maxTombstones {
		t.verFloor = t.maxTombstone()
		clear(t.tombs)
	}
	t.tombs[id] = version
}

// firstVersion returns the version a document created under id starts
// at — 1 for an id this table never held. Caller holds t.mu.
func (t *table) firstVersion(id string) int64 {
	return max(t.verFloor, t.tombs[id]) + 1
}

// maxTombstone returns the highest version verFloor and tombs hold — the
// one number a snapshot carries (wal.TableMeta) in place of the
// tombstones. Caller holds t.mu.
func (t *table) maxTombstone() int64 {
	v := t.verFloor
	for _, tomb := range t.tombs {
		v = max(v, tomb)
	}
	return v
}

// swap is the one table mutation: it replaces the document stored under
// next.ID with next — or, when deleted, removes it and buries next.Version
// as the id's tombstone — keeping every secondary index exact. Live
// writes, recovery, replica apply and snapshot import all go through it.
// next is stored as is and never mutated again, so swap seals it: its
// wire form is built on its first read and kept. Caller holds t.mu, or
// owns the table outright.
func (t *table) swap(next *document.Document, deleted bool) {
	id := next.ID
	if prev, ok := t.docs[id]; ok {
		for _, ix := range t.indexes {
			ix.Remove(prev)
		}
	}
	if deleted {
		delete(t.docs, id)
		t.bury(id, next.Version)
		return
	}
	// A live document carries the id's version count from here on.
	delete(t.tombs, id)
	next.Seal()
	t.docs[id] = next
	for _, ix := range t.indexes {
		ix.Add(next)
	}
}

// addIndex installs an index on path built over the current documents and
// reports whether it is new. Caller holds t.mu, or owns the table.
func (t *table) addIndex(path string) bool {
	if _, ok := t.indexes[path]; ok {
		return false
	}
	ix := index.NewField(path)
	for _, d := range t.docs {
		ix.Add(d)
	}
	t.indexes[path] = ix
	return true
}

// indexPaths returns the sorted indexed field paths.
func (t *table) indexPaths() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return slices.Sorted(maps.Keys(t.indexes))
}

// Open creates a store. A nil opts uses defaults (in-memory). When
// opts.DataDir is set the store is durable: Open recovers the previous
// state from the latest snapshot plus the WAL tail (tolerating a torn
// final record), rebuilds all secondary indexes, restores LastSeq, and
// then logs every subsequent write before publishing it.
func Open(opts *Options) (*Store, error) {
	o := opts.withDefaults()
	s := &Store{
		opts:   o,
		tables: map[string]*table{},
	}
	if o.DataDir == "" {
		s.openPipeline(0)
		return s, nil
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// openPipeline builds the ordered commit pipeline, tailing from lastSeq
// (non-zero after recovery).
func (s *Store) openPipeline(lastSeq uint64) {
	s.pipeline = commitlog.NewLog(&commitlog.Options{
		Ring:     s.opts.ChangeBuffer,
		StartSeq: lastSeq,
		Clock:    s.opts.Clock,
	})
}

// MustOpen is Open for callers without a useful error path (tests,
// examples, in-memory stores, benchmarks); it panics on failure.
func MustOpen(opts *Options) *Store {
	s, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Close shuts the store down, closes all change-stream subscriptions and
// cleanly seals the WAL (flushing and fsyncing pending appends). The
// pipeline closes before the WAL so the committer's post-commit hook can
// never block on a fan-out ring nobody is draining anymore.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.pipeline.Close()
	if s.wal != nil {
		s.wal.Close()
	}
}

// CreateTable creates a table; creating an existing table is a no-op.
// On durable stores the creation is logged (and thus survives restart)
// before CreateTable returns.
func (s *Store) CreateTable(name string) error {
	created, err := s.createTable(name)
	if err != nil || !created || s.wal == nil {
		return err
	}
	// DDL records carry Seq 0 and replay unconditionally; creation is
	// idempotent, so double-applying against a snapshot is harmless.
	return s.wal.Append(wal.Record{Kind: wal.KindCreateTable, Table: name})
}

func (s *Store) createTable(name string) (created bool, err error) {
	if name == "" {
		return false, ErrEmptyTable
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	if _, ok := s.tables[name]; ok {
		return false, nil
	}
	s.tables[name] = newTable(name)
	return true, nil
}

// Tables returns the sorted table names.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Sorted(maps.Keys(s.tables))
}

func (s *Store) table(name string) (*table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// Insert stores doc as a new document, stamping its version. It fails
// with ErrExists when the id is already present. doc belongs to the store
// from then on (document.Document's ownership rule).
func (s *Store) Insert(tableName string, doc *document.Document) error {
	return s.put(tableName, doc, WriteInsert)
}

// Get returns the stored document, read-only, or ErrNotFound.
func (s *Store) Get(tableName, id string) (*document.Document, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	doc, ok := t.docs[id]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, tableName, id)
	}
	return doc, nil
}

// Put replaces a document's fields wholesale, creating it if absent
// (upsert). The version increments; per-key monotonic writes follow from
// the table lock serializing writers. doc belongs to the store from then
// on, as for Insert.
func (s *Store) Put(tableName string, doc *document.Document) error {
	return s.put(tableName, doc, WritePut)
}

func (s *Store) put(tableName string, doc *document.Document, kind WriteKind) error {
	if doc == nil {
		return ErrNilDocument
	}
	return s.Apply([]Write{{Kind: kind, Table: tableName, ID: doc.ID, Doc: doc}})
}

// UpdateSpec describes a partial update.
type UpdateSpec struct {
	// Set assigns values at dotted paths.
	Set map[string]any
	// Unset removes dotted paths.
	Unset []string
	// Inc adds a numeric delta at dotted paths (missing paths start at 0).
	Inc map[string]float64
	// Push appends values to array fields (missing paths start empty).
	Push map[string]any
	// Pull removes all occurrences of a value from array fields.
	Pull map[string]any
	// IfVersion, when non-zero, makes the update conditional on the current
	// version (optimistic concurrency; ErrVersionCheck on mismatch).
	IfVersion int64
}

// Update applies a partial update to a draft of the stored document's
// next version, stores it in the document's place and returns it,
// read-only.
func (s *Store) Update(tableName, id string, spec UpdateSpec) (*document.Document, error) {
	w := []Write{{Kind: WriteUpdate, Table: tableName, ID: id, Spec: spec}}
	if err := s.Apply(w); err != nil {
		return nil, err
	}
	return w[0].After, nil
}

// fieldWriter is what an update reads and changes: a *document.Document,
// or the store's *document.Draft of a record's next version.
type fieldWriter interface {
	Get(path string) (any, bool)
	Set(path string, value any) error
	Delete(path string)
}

// updated returns prev's next version under spec: a text document whose
// text the draft spliced, or encoded once (see document.Draft).
func updated(prev *document.Document, spec UpdateSpec) (*document.Document, error) {
	draft := prev.Draft(prev.Version + 1)
	if err := ApplySpec(draft, spec); err != nil {
		return nil, err
	}
	return draft.Document(), nil
}

// ApplySpec applies spec's Set, Unset, Inc, Push and Pull to doc in place,
// in that order: the one definition of what an update does to a document.
// IfVersion is the caller's to check. A spec that does not fit the
// document returns an error and may leave doc half-updated, so callers
// apply it to a copy.
func ApplySpec(doc fieldWriter, spec UpdateSpec) error {
	for _, path := range inOrder(spec.Set) {
		if err := doc.Set(path, spec.Set[path]); err != nil {
			return fmt.Errorf("%w: set %q: %v", ErrBadUpdateSpec, path, err)
		}
	}
	for _, path := range spec.Unset {
		doc.Delete(path)
	}
	for _, path := range inOrder(spec.Inc) {
		delta := spec.Inc[path]
		cur, _ := doc.Get(path)
		var base float64
		switch n := cur.(type) {
		case int64:
			base = float64(n)
		case float64:
			base = n
		case nil:
			base = 0
		default:
			return fmt.Errorf("%w: inc %q: field is %T", ErrBadUpdateSpec, path, cur)
		}
		sum := base + delta
		var nv any = sum
		if sum == float64(int64(sum)) {
			nv = int64(sum)
		}
		if err := doc.Set(path, nv); err != nil {
			return fmt.Errorf("%w: inc %q: %v", ErrBadUpdateSpec, path, err)
		}
	}
	for _, path := range inOrder(spec.Push) {
		v := spec.Push[path]
		cur, ok := doc.Get(path)
		var arr []any
		if ok {
			a, isArr := cur.([]any)
			if !isArr {
				return fmt.Errorf("%w: push %q: field is %T", ErrBadUpdateSpec, path, cur)
			}
			arr = a
		}
		arr = append(arr, document.Normalize(v))
		if err := doc.Set(path, arr); err != nil {
			return fmt.Errorf("%w: push %q: %v", ErrBadUpdateSpec, path, err)
		}
	}
	for _, path := range inOrder(spec.Pull) {
		v := spec.Pull[path]
		cur, ok := doc.Get(path)
		if !ok {
			continue
		}
		arr, isArr := cur.([]any)
		if !isArr {
			return fmt.Errorf("%w: pull %q: field is %T", ErrBadUpdateSpec, path, cur)
		}
		norm := document.Normalize(v)
		out := arr[:0]
		for _, e := range arr {
			if !document.DeepEqual(e, norm) {
				out = append(out, e)
			}
		}
		if err := doc.Set(path, append([]any(nil), out...)); err != nil {
			return fmt.Errorf("%w: pull %q: %v", ErrBadUpdateSpec, path, err)
		}
	}
	return nil
}

// inOrder returns m's paths sorted, so that a spec whose paths overlap
// ("a" and "a.b") does the same every time it is applied: by the store,
// and by an SDK transaction reading its own patch.
func inOrder[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	paths := make([]string, 0, len(m))
	for path := range m {
		paths = append(paths, path)
	}
	slices.Sort(paths)
	return paths
}

// Delete removes a document, returning ErrNotFound if absent.
func (s *Store) Delete(tableName, id string) error {
	w := []Write{{Kind: WriteDelete, Table: tableName, ID: id}}
	if err := s.Apply(w); err != nil {
		return err
	}
	if w[0].After == nil {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, tableName, id)
	}
	return nil
}

// CreateIndex builds a secondary index over a dotted field path and keeps
// it maintained by every subsequent write. Creating an existing index is a
// no-op. The build holds the table's write lock, so the index is exactly
// consistent with concurrent writes and a query sees either no index or
// the finished one. On durable stores the index definition is logged, so
// restart rebuilds it.
func (s *Store) CreateIndex(tableName, path string) error {
	added, err := s.buildIndex(tableName, path)
	if err != nil || !added {
		return err
	}
	if s.readOnly.Load() {
		// Replica-local DDL builds the index but must not consume the
		// replicated sequence space — the primary's sequenced DDL record
		// arrives (idempotently) through ApplyReplicated. Log unsequenced
		// so the build survives a replica restart.
		if s.wal != nil {
			return s.wal.Append(wal.Record{Kind: wal.KindCreateIndex, Table: tableName, Path: path})
		}
		return nil
	}
	// Sequence the DDL through the commit pipeline like any write:
	// replicas and all live subscribers learn the index in position,
	// instead of only via shipped segments or re-bootstrap.
	w, err := s.stampIndex(tableName, path, 0)
	if err != nil {
		return err
	}
	return s.commit(w)
}

// stampIndex stamps an index creation as an event of the write order —
// at the next Seq, or at seq on a replica.
func (s *Store) stampIndex(tableName, path string, seq uint64) (*wal.Waiter, error) {
	ev := []ChangeEvent{{Table: tableName, Op: commitlog.OpCreateIndex, Path: path, Time: s.opts.Clock()}}
	evs, entry, err := s.encode(ev)
	if err != nil {
		return nil, err
	}
	return s.stamp(evs, seq, entry), nil
}

// buildIndex installs and backfills the index structure without logging
// or sequencing; it reports whether the index was new. CreateIndex wraps
// it with pipeline sequencing; recovery and the replication applier call
// it directly.
func (s *Store) buildIndex(tableName, path string) (bool, error) {
	if path == "" {
		return false, fmt.Errorf("%w: empty index path", ErrBadUpdateSpec)
	}
	t, err := s.table(tableName)
	if err != nil {
		return false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addIndex(path), nil
}

// Indexes returns the sorted indexed field paths of a table.
func (s *Store) Indexes(tableName string) ([]string, error) {
	t, err := s.table(tableName)
	if err != nil {
		return nil, err
	}
	return t.indexPaths(), nil
}

// IndexStats implements query.Catalog. Caller holds t.mu.
func (t *table) IndexStats(path string) (query.IndexStats, bool) {
	ix, ok := t.indexes[path]
	if !ok {
		return query.IndexStats{}, false
	}
	st := ix.Stats()
	return query.IndexStats{Docs: st.Docs, Distinct: st.Distinct}, true
}

// TableDocs implements query.Catalog. Caller holds t.mu.
func (t *table) TableDocs() int { return len(t.docs) }

// Query evaluates q against its table and returns the matching stored
// documents, read-only, in the query's order. Reads route through the
// planner: when a usable index exists the executor probes or range-scans
// it instead of scanning the table.
func (s *Store) Query(q *query.Query) ([]*document.Document, error) {
	docs, _, err := s.QueryPlanned(q)
	return docs, err
}

func toIndexBound(b query.Bound) index.Bound {
	return index.Bound{Value: b.Value, Inclusive: b.Inclusive, Unbounded: b.Unbounded}
}

// ScanQuery evaluates q by full table scan, bypassing the planner AND the
// streaming executor: it clones every match and sorts the full set through
// Query.Apply. It is the materializing correctness baseline the executor's
// property tests and benchmarks compare against.
func (s *Store) ScanQuery(q *query.Query) ([]*document.Document, error) {
	t, err := s.table(q.Table)
	if err != nil {
		return nil, err
	}
	var candidates []*document.Document
	t.mu.RLock()
	for _, d := range t.docs {
		if q.Matches(d) {
			candidates = append(candidates, d.Clone())
		}
	}
	t.mu.RUnlock()
	return q.Apply(candidates), nil
}

// Explain returns the access plan the planner would choose for q right
// now, without executing it. The plan carries the execution strategy and
// residual-pushdown report (static properties of the plan); the row
// counters stay zero until an actual execution fills them.
func (s *Store) Explain(q *query.Query) (query.Plan, error) {
	t, err := s.table(q.Table)
	if err != nil {
		return query.Plan{}, err
	}
	t.mu.RLock()
	plan, _ := t.plan(q)
	t.mu.RUnlock()
	return plan, nil
}

// plan chooses q's access plan, execution strategy and residual
// predicate. Caller holds t.mu.
func (t *table) plan(q *query.Query) (query.Plan, query.Predicate) {
	plan := query.BuildPlan(q, t)
	residual, elided := query.Residual(q.Predicate, plan)
	plan.Strategy = query.ChooseStrategy(q, plan)
	plan.ElidedConjuncts = elided
	return plan, residual
}

// Count returns the number of documents in a table.
func (s *Store) Count(tableName string) (int, error) {
	t, err := s.table(tableName)
	if err != nil {
		return 0, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.docs), nil
}

// encode prepares the WAL records of a unit's events — everything but
// their Seqs — on durable stores, before the stamp section because its
// cost grows with the documents. It returns the events stamp has to fill
// in: a heap copy that rides along as the committer's post-commit
// payload, or, on in-memory stores, evs itself (which stamp copies into
// the outbox).
func (s *Store) encode(evs []ChangeEvent) ([]ChangeEvent, wal.Entry, error) {
	if s.wal == nil {
		return evs, wal.Entry{}, nil
	}
	payload := new(unitEvents)
	if len(evs) == 1 {
		payload.evs = payload.one[:]
	} else {
		payload.evs = make([]ChangeEvent, len(evs))
	}
	copy(payload.evs, evs)
	size := 0
	for i := range evs {
		size += frameSize(&evs[i])
	}
	entry := s.wal.Begin(payload, size)
	for i := range payload.evs {
		ev := &payload.evs[i]
		rec := wal.Record{Table: ev.Table}
		switch ev.Op {
		case OpDelete:
			rec.Kind, rec.ID, rec.Version = wal.KindDelete, ev.After.ID, ev.After.Version
		case commitlog.OpCreateIndex:
			rec.Kind, rec.Path = wal.KindCreateIndex, ev.Path
		default:
			rec.Kind, rec.Doc = wal.KindPut, ev.After
		}
		if err := entry.Add(&rec); err != nil {
			return nil, wal.Entry{}, err
		}
	}
	return payload.evs, entry, nil
}

// frameSize estimates the log record of ev for wal.Log.Begin: a put by
// its document's encoded length, which a document built in Go, not
// encoded yet, takes from its before-image. Other records are small and
// sized as they are added.
func frameSize(ev *ChangeEvent) int {
	if ev.Op == OpDelete || ev.Op == commitlog.OpCreateIndex {
		return 0
	}
	n := ev.After.EncodedLen()
	if n == 0 && ev.Before != nil {
		n = ev.Before.EncodedLen()
	}
	return wal.PutFrameSize(ev.Table, n)
}

// unitEvents is the WAL payload of a unit: its events, kept in place for
// a one-write unit so that a single write's payload is one allocation.
type unitEvents struct {
	evs []ChangeEvent
	one [1]ChangeEvent
}

// stamp is the store's one ordering point. Inside the stamp section a
// unit's events get contiguous Seqs — from the next one, or from seq when
// a replica replays its primary's — and are handed, as one unit, to the
// queue that fixes their position: the WAL's commit queue (whose
// committer publishes each group that committed, in queue order) or, on
// in-memory stores, the outbox flush drains. Both queues hold events in
// Seq order by construction, and an event whose record never commits is
// simply never published — no one waits for its Seq. The section is
// O(len(evs)) of Seq assignment (or an outbox copy) and one queue send:
// no encoding, cloning, index maintenance or I/O.
func (s *Store) stamp(evs []ChangeEvent, seq uint64, entry wal.Entry) *wal.Waiter {
	s.stampMu.Lock()
	defer s.stampMu.Unlock()
	if seq == 0 {
		seq = s.seq.Load() + 1
	}
	for i := range evs {
		evs[i].Seq = seq + uint64(i)
	}
	s.seq.Store(seq + uint64(len(evs)) - 1)
	if s.wal == nil {
		s.outbox = append(s.outbox, evs...)
		s.outboxEnds = append(s.outboxEnds, len(s.outbox))
		return nil
	}
	return s.wal.Submit(entry, seq)
}

// commit finishes a unit's journey onto the commit pipeline. Durable
// stores wait once for the unit's records to become durable per the fsync
// policy; the committer's hook has published them by the time an
// fsync-acknowledged Wait returns. A WAL failure is returned to the
// writer; the in-memory mutation has already happened, so a wedged log
// makes the store effectively read-only for durable correctness.
// In-memory stores flush the outbox: on return the unit's events (and
// every earlier one) are on the pipeline. w is nil there, and for a unit
// or a replicated batch that stamped nothing.
func (s *Store) commit(w *wal.Waiter) error {
	if s.wal == nil {
		s.flush()
		return nil
	}
	if w == nil {
		return nil
	}
	if err := w.Wait(); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	return nil
}

// flush publishes the outbox, unit by unit. Flushers serialize on pubMu
// and each takes everything stamped so far, so units reach the pipeline
// in Seq order. Called with no table lock held: Append blocks while a
// subscriber is a full ring behind.
func (s *Store) flush() {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.stampMu.Lock()
	batch, ends := s.outbox, s.outboxEnds
	s.outbox, s.outboxEnds = s.spare[:0], s.spareEnds[:0]
	s.stampMu.Unlock()
	units, from := s.spareUnits[:0], 0
	for _, end := range ends {
		units = append(units, batch[from:end])
		from = end
	}
	s.pipeline.Append(units...)
	clear(batch) // drop the document references
	clear(units)
	s.spare, s.spareEnds, s.spareUnits = batch, ends, units
}

// Subscribe registers a change-stream consumer receiving every write's
// after-image in strict global Seq order. Cancel releases the
// subscription. A slow consumer applies backpressure to commits once it
// falls a full fan-out ring behind — InvaliDB's ingestion drains
// continuously, mirroring the transactional pull in the paper.
func (s *Store) Subscribe() (<-chan ChangeEvent, func()) {
	return s.SubscribeNamed("subscriber")
}

// SubscribeNamed is Subscribe with a name reported in PipelineStats.
func (s *Store) SubscribeNamed(name string) (<-chan ChangeEvent, func()) {
	return s.pipeline.SubscribeTail(name).Flatten(s.opts.ChangeBuffer)
}

// SubscribeTail registers an ordered batch consumer of every event
// published from now on, each batch one or more whole units (see
// commitlog.Subscription); Cancel releases it.
func (s *Store) SubscribeTail(name string) *commitlog.Subscription {
	return s.pipeline.SubscribeTail(name)
}

// SubscribeFrom registers an ordered batch consumer starting after
// fromSeq: retained events with Seq > fromSeq are delivered first (the
// fan-out ring holds the last ChangeBuffer events), then the live tail,
// all as contiguous Seq-ordered batches. This is the attach point for
// log-shipping replication: a replica bootstraps from a snapshot, then
// subscribes from the snapshot's sequence floor. When fromSeq predates
// the ring's retention SubscribeFrom fails with commitlog.ErrSeqTruncated
// and the replica must re-bootstrap from a fresh snapshot first; nothing
// on this path reads the WAL.
func (s *Store) SubscribeFrom(name string, fromSeq uint64) (*commitlog.Subscription, error) {
	return s.pipeline.Subscribe(name, fromSeq)
}

// Replay returns the change events of a table with Seq > afterSeq, oldest
// first, from the fan-out ring. InvaliDB replays these when activating a
// query to close the gap between initial evaluation and activation
// (Section 4.1: "all recently received objects are replayed for a query
// when it is installed"). When the ring no longer covers afterSeq — more
// than ChangeBuffer events were published since, or a snapshot import
// collapsed the range — Replay returns commitlog.ErrSeqTruncated instead
// of part of the gap: a query installed on a partial replay could miss
// its invalidations, so the server serves it uncached.
func (s *Store) Replay(tableName string, afterSeq uint64) ([]ChangeEvent, error) {
	return s.pipeline.Replay(tableName, afterSeq)
}

// PipelineStats describes the ordered commit pipeline: fan-out counters,
// per-subscriber lag/drops and the publish→deliver latency histogram.
type PipelineStats struct {
	Stream commitlog.Stats `json:"stream"`
}

// PipelineStats reports the commit pipeline's counters.
func (s *Store) PipelineStats() PipelineStats {
	return PipelineStats{Stream: s.pipeline.Stats()}
}

// maybeAutoSnapshot triggers a background snapshot once the WAL's
// on-disk size reaches Options.AutoSnapshotBytes. It is called from the
// WAL committer's post-commit hook — once per committed batch, the only
// point where the on-disk size is current (write ticks would race the
// committer under the asynchronous fsync policies) — so the snapshot
// itself must run on its own goroutine: it rotates the log via a
// control request the committer has to be free to serve. At most one
// auto-snapshot is in flight at a time.
func (s *Store) maybeAutoSnapshot() {
	if s.opts.AutoSnapshotBytes <= 0 || s.wal.SizeBytes() < s.opts.AutoSnapshotBytes {
		return
	}
	if !s.autoSnapBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.autoSnapBusy.Store(false)
		// Failures (e.g. a store closing mid-snapshot) are dropped: the
		// next threshold crossing retries.
		if _, err := s.Snapshot(); err == nil {
			s.autoSnaps.Add(1)
		}
	}()
}

// LastSeq returns the sequence number of the most recent write.
func (s *Store) LastSeq() uint64 { return s.seq.Load() }
