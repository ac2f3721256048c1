package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/wal"
)

// This file is the store's log-shipping surface: what a primary exports
// (a point-in-time snapshot stream) and what a replica applies (snapshot
// import, replicated record batches through the recovery-style
// idempotent apply path). The commit pipeline's SubscribeFrom is the
// other leg — the live ordered feed — and lives in store.go.

// Replication errors.
var (
	// ErrReadOnly rejects doc writes on an unpromoted replica. DDL
	// (CreateTable/CreateIndex) stays allowed: tables arrive through
	// replication anyway and local secondary indexes are a per-node read
	// optimization a replica may legitimately build for itself.
	ErrReadOnly = errors.New("store: read-only replica (promote to accept writes)")
	// ErrSnapshotStale rejects an imported snapshot whose floor is below
	// state the store already holds.
	ErrSnapshotStale = errors.New("store: snapshot floor below current sequence")
)

// SetReadOnly toggles replica mode: while set, Insert/Put/Update/Delete
// fail with ErrReadOnly and the only way state changes is ImportSnapshot
// and ApplyReplicated. Promotion clears it.
func (s *Store) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// IsReadOnly reports whether the store currently rejects doc writes.
func (s *Store) IsReadOnly() bool { return s.readOnly.Load() }

// ExportSnapshot streams a point-in-time snapshot of the whole store —
// meta frame (sequence floor, tables, index paths), one frame per
// document, end frame — in the WAL snapshot format. Unlike Snapshot it
// touches no disk state and works on in-memory stores too, so any store
// can bootstrap a replica. Every write with Seq <= the returned floor is
// included; writes racing past the floor may leak in, which is harmless
// because the replica re-applies the stream from the floor through the
// idempotent apply path.
//
// Table locks are held only while collecting document pointers (stored
// documents are never mutated: document.Document's ownership rule), so
// a slow receiver never blocks the write path.
func (s *Store) ExportSnapshot(w io.Writer) (wal.SnapshotMeta, int, error) {
	floor := s.seq.Load()
	tables, meta, err := s.snapshotTablesMeta(floor)
	if err != nil {
		return wal.SnapshotMeta{}, 0, err
	}

	sw := wal.NewSnapshotStreamWriter(w)
	if err := sw.Meta(meta); err != nil {
		return meta, 0, fmt.Errorf("store: exporting snapshot meta: %w", err)
	}
	if err := writeDocs(tables, sw.Doc); err != nil {
		return meta, sw.Docs(), fmt.Errorf("store: exporting snapshot: %w", err)
	}
	if err := sw.End(); err != nil {
		return meta, sw.Docs(), fmt.Errorf("store: exporting snapshot: %w", err)
	}
	return meta, sw.Docs(), nil
}

// ImportInfo describes a completed snapshot import: the snapshot's
// figures plus the synthetic events the old-vs-imported diff published.
type ImportInfo struct {
	SnapshotInfo
	// SyntheticDeletes counts documents that vanished inside the
	// collapsed range (a synthetic Delete was published for each);
	// SyntheticPuts counts documents created or re-versioned there.
	SyntheticDeletes int `json:"syntheticDeletes"`
	SyntheticPuts    int `json:"syntheticPuts"`
}

// ImportSnapshot replaces the store's contents with a snapshot stream
// (the format ExportSnapshot produces) as a double-buffered atomic swap:
// the stream is applied into a shadow table set (indexes included) while
// the old state keeps serving reads untouched, and only after the end
// frame validates the transfer is the new state swapped in atomically
// under the store lock. Concurrent readers therefore observe either the
// complete old state or the complete new state, never a mix; a
// mid-stream error, a truncated transfer or a stale floor leaves the old
// state fully intact. The sequence counter jumps to the snapshot's
// floor — the point the replica then streams from. On durable stores the
// incoming bytes are simultaneously persisted as the local snapshot file
// and the WAL is reset (rotate + drop sealed segments), so a restart
// recovers straight from the imported state.
//
// After the swap, the old and imported states are diffed and the
// difference is published as synthetic events sequenced at the floor —
// Deletes for documents that vanished inside the collapsed range, Puts
// for documents created or re-versioned there — delivered to local
// subscribers (InvaliDB, SSE) but never re-logged to the WAL, which the
// teed snapshot file already supersedes. Every local cache layer
// converges without waiting for the next organic write.
//
// Tables and secondary indexes the snapshot does not carry survive:
// local tables stay (emptied — the import supersedes all replicated
// documents) and per-node index definitions are rebuilt against the
// imported documents.
//
// The caller must be the only writer (a replica's single replication
// applier).
func (s *Store) ImportSnapshot(r io.Reader) (ImportInfo, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()

	// Durable stores tee the raw stream into the local snapshot temp
	// file; it is committed (fsync + atomic rename) only after the end
	// frame validated the transfer.
	var tmpF *os.File
	var tmpW *bufio.Writer
	src := r
	if s.wal != nil {
		tmp := filepath.Join(s.opts.DataDir, wal.SnapshotName+".tmp")
		f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			return ImportInfo{}, fmt.Errorf("store: creating snapshot temp: %w", err)
		}
		tmpF = f
		tmpW = bufio.NewWriterSize(f, 1<<16)
		src = io.TeeReader(r, tmpW)
		defer func() {
			if tmpF != nil { // not committed: discard
				tmpF.Close()
				os.Remove(tmp)
			}
		}()
	}

	// The stream lands in a private shadow table set; the live state is
	// not touched until the whole transfer has validated.
	shadow := map[string]*table{}
	var meta wal.SnapshotMeta
	docs := 0
	err := wal.ReadSnapshotStream(src,
		func(m wal.SnapshotMeta) error {
			if m.Seq < s.seq.Load() {
				return fmt.Errorf("%w: floor %d, store at %d", ErrSnapshotStale, m.Seq, s.seq.Load())
			}
			meta = m
			for _, tm := range m.Tables {
				t := newTable(tm.Name)
				t.verFloor = tm.VersionFloor
				shadow[tm.Name] = t
				for _, p := range tm.Indexes {
					t.addIndex(p)
				}
			}
			return nil
		},
		func(tbl string, doc *document.Document) error {
			docs++
			t, ok := shadow[tbl]
			if !ok {
				return fmt.Errorf("store: snapshot doc for undeclared table %q", tbl)
			}
			t.swap(doc, false)
			return nil
		})
	if err != nil {
		return ImportInfo{}, fmt.Errorf("store: importing snapshot: %w", err)
	}

	// Local definitions survive the re-bootstrap: tables absent from the
	// snapshot stay (empty), and per-node secondary indexes are rebuilt
	// against the imported documents. Definitions the snapshot meta does
	// not cover are collected for re-logging: on durable stores the WAL
	// reset below destroys the DDL records that created them, and the
	// teed snapshot only carries the primary's meta, so without a fresh
	// record a restart would silently drop them.
	var localDDL []wal.Record
	inMeta := make(map[string]bool, len(meta.Tables))
	for _, tm := range meta.Tables {
		inMeta[tm.Name] = true
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return ImportInfo{}, ErrClosed
	}
	locals := maps.Clone(s.tables)
	s.mu.RUnlock()
	for name, lt := range locals {
		nt, ok := shadow[name]
		if !ok {
			nt = newTable(name)
			shadow[name] = nt
		}
		if !inMeta[name] {
			localDDL = append(localDDL, wal.Record{Kind: wal.KindCreateTable, Table: name})
		}
		for _, p := range lt.indexPaths() {
			if nt.addIndex(p) {
				localDDL = append(localDDL, wal.Record{Kind: wal.KindCreateIndex, Table: name, Path: p})
			}
		}
	}

	if s.wal != nil {
		if err := tmpW.Flush(); err != nil {
			return ImportInfo{}, err
		}
		//lint:quaestor lockio -- local fsync of the teed snapshot before the atomic rename; snapMu is the import's own serialization lock and must span the whole commit
		if err := tmpF.Sync(); err != nil {
			return ImportInfo{}, err
		}
		if err := tmpF.Close(); err != nil {
			return ImportInfo{}, err
		}
		if err := os.Rename(tmpF.Name(), filepath.Join(s.opts.DataDir, wal.SnapshotName)); err != nil {
			return ImportInfo{}, err
		}
		tmpF = nil // committed: keep
		// The imported snapshot supersedes all prior local history: seal
		// the active segment and drop everything sealed. Recovery is now
		// snapshot + (empty) tail. (A failure here leaves the old state
		// serving in memory and a consistent disk pair: records below the
		// new snapshot's floor are skipped on replay.)
		sealed, err := s.wal.Rotate()
		if err != nil {
			return ImportInfo{}, fmt.Errorf("store: resetting wal after import: %w", err)
		}
		if err := s.wal.Remove(sealed); err != nil {
			return ImportInfo{}, fmt.Errorf("store: resetting wal after import: %w", err)
		}
		// Re-log the preserved local-only definitions into the fresh log
		// (seq-0 DDL records, idempotent on replay), so a restart rebuilds
		// them over the imported snapshot.
		for _, rec := range localDDL {
			if err := s.wal.Append(rec); err != nil {
				return ImportInfo{}, fmt.Errorf("store: re-logging local ddl after import: %w", err)
			}
		}
	}

	// The swap: one table-map replacement under the store lock. Readers
	// resolve their table pointer under the same lock, so every read
	// observes either the complete old state or the complete new state —
	// a reader that already holds an old table pointer keeps reading the
	// old state, which is never mutated again.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ImportInfo{}, ErrClosed
	}
	// A table created while the import streamed (DDL stays allowed on
	// replicas) is carried over rather than dropped; it is necessarily
	// empty of documents (the importer is the only doc writer), so
	// sharing the pointer with the old set diffs to nothing.
	var carried []string
	for name, t := range s.tables {
		if _, ok := shadow[name]; !ok {
			shadow[name] = t
			carried = append(carried, name)
		}
	}
	old := s.tables
	s.tables = shadow
	s.mu.Unlock()

	// Concurrently created tables need fresh DDL records too (their
	// originals predate the reset).
	if s.wal != nil {
		for _, name := range carried {
			if err := s.wal.Append(wal.Record{Kind: wal.KindCreateTable, Table: name}); err != nil {
				return ImportInfo{}, fmt.Errorf("store: re-logging local ddl after import: %w", err)
			}
		}
	}
	// Heal index definitions that raced the import: a CreateIndex landing
	// between the locals capture above and the swap installed itself on an
	// old table object the swap just retired. Replaying every old path
	// through CreateIndex is a no-op for paths the shadow already carries
	// and installs (and, on durable stores, re-logs) the racers against
	// the imported documents. A CreateIndex still in flight at the swap
	// instant can lose its in-memory postings until restart, but its DDL
	// record lands in the fresh log either way.
	for name, ot := range old {
		for _, p := range ot.indexPaths() {
			if err := s.CreateIndex(name, p); err != nil {
				return ImportInfo{}, fmt.Errorf("store: re-installing index %s:%s after import: %w", name, p, err)
			}
		}
	}

	// The pipeline resumes at the floor: subscribers see a seq jump over
	// the range the snapshot covers (they cannot observe the individual
	// writes a snapshot collapsed anyway), and the fan-out ring's
	// truncation horizon moves with it so a chained replica attaching
	// from inside the collapsed range is refused (ErrSeqTruncated → it
	// re-bootstraps) instead of silently skipping history. Nothing below
	// the floor is still in flight: the WAL rotation above ran behind it
	// in the commit queue, and in-memory applies flush before returning.
	s.stampMu.Lock()
	s.seq.Store(meta.Seq)
	s.stampMu.Unlock()
	s.pipeline.Truncate(meta.Seq)

	dels, puts := s.publishImportDiff(old, shadow, meta.Seq)

	info := ImportInfo{
		SnapshotInfo: SnapshotInfo{
			Seq:    meta.Seq,
			Docs:   docs,
			At:     meta.CreatedAt,
			TookMs: float64(time.Since(start)) / float64(time.Millisecond),
		},
		SyntheticDeletes: dels,
		SyntheticPuts:    puts,
	}
	if s.wal != nil {
		if fi, err := os.Stat(filepath.Join(s.opts.DataDir, wal.SnapshotName)); err == nil {
			info.Bytes = fi.Size()
		}
		snap := info.SnapshotInfo
		s.lastSnap = &snap
	}
	return info, nil
}

// publishImportDiff diffs the replaced state against the imported one
// and publishes the difference as synthetic events sequenced at the
// snapshot floor: a Delete for every document that vanished inside the
// collapsed range, a Put for every document created or re-versioned
// there. The events reach local subscribers only (InvaliDB, SSE) — they
// are never re-logged to the WAL, which the imported snapshot
// supersedes. Doc lookups are lock-free: the import path is the only
// writer of either table set.
func (s *Store) publishImportDiff(old, imported map[string]*table, floor uint64) (dels, puts int) {
	// Synthetic events share the floor as their Seq (subscribers tolerate
	// the run of equal Seqs) and take no slot of the write order, so they
	// bypass the stamp section and go straight onto the pipeline.
	now := s.opts.Clock()
	var evs []ChangeEvent
	emit := func(table string, op OpType, before, after *document.Document) {
		evs = append(evs, ChangeEvent{Seq: floor, Table: table, Op: op, Deleted: op == OpDelete,
			Synthetic: true, Before: before, After: after, Time: now})
	}
	for name, ot := range old {
		nt := imported[name] // never nil: the shadow set includes every local table
		for id, odoc := range ot.docs {
			ndoc := nt.docs[id]
			switch {
			case ndoc == nil:
				emit(name, OpDelete, odoc, &document.Document{ID: id, Version: odoc.Version + 1})
				dels++
			// Version equality alone cannot prove identity across
			// lineages: versions are unique per id within one primary's
			// history, but the snapshot may come from a primary that
			// never saw this node's tail (failover), where the same
			// version can carry different content. Equal versions fall
			// through to a content comparison.
			case ndoc.Version != odoc.Version || !document.DeepEqual(odoc.Body(), ndoc.Body()):
				emit(name, OpUpdate, odoc, ndoc)
				puts++
			}
		}
	}
	for name, nt := range imported {
		ot := old[name]
		for id, ndoc := range nt.docs {
			if ot != nil && ot.docs[id] != nil {
				continue // pre-existing: handled (or unchanged) above
			}
			emit(name, OpInsert, nil, ndoc)
			puts++
		}
	}
	s.pubMu.Lock()
	s.pipeline.Append(evs)
	s.pubMu.Unlock()
	return dels, puts
}

// snapshotTablesMeta collects the store's tables (sorted by name) and
// builds the snapshot meta frame for the given sequence floor — shared
// by local snapshots (Snapshot) and replication exports
// (ExportSnapshot) so the two formats cannot drift.
func (s *Store) snapshotTablesMeta(floor uint64) ([]*table, wal.SnapshotMeta, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, wal.SnapshotMeta{}, ErrClosed
	}
	tables := make([]*table, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.RUnlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].name < tables[j].name })

	meta := wal.SnapshotMeta{Seq: floor, CreatedAt: s.opts.Clock()}
	for _, t := range tables {
		t.mu.RLock()
		meta.Tables = append(meta.Tables, wal.TableMeta{Name: t.name, Indexes: slices.Sorted(maps.Keys(t.indexes)), VersionFloor: t.maxTombstone()})
		t.mu.RUnlock()
	}
	return tables, meta, nil
}

// writeDocs hands every document of tables to doc (a snapshot writer's
// Doc). A table's read lock is held only while collecting its document
// pointers: stored documents are never mutated, so they are written out
// after releasing it and a slow disk or receiver never stalls writers.
func writeDocs(tables []*table, doc func(table string, d *document.Document) error) error {
	for _, t := range tables {
		t.mu.RLock()
		docs := slices.Collect(maps.Values(t.docs))
		t.mu.RUnlock()
		for _, d := range docs {
			if err := doc(t.name, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyReplicated applies one ordered batch of replicated log records —
// the stream a primary's commit pipeline produces — through the same
// write path as a local write (a one-write unit per record), at the
// primary's sequence numbers:
//
//   - records at or below the store's sequence are duplicates from a
//     reconnect or a stream overlapping a snapshot bootstrap and are
//     skipped, so re-delivery is a no-op;
//   - DDL records (Seq 0) replay unconditionally, they are idempotent;
//   - doc records install the after-image exactly as recorded, advance
//     the sequence counter, and are re-logged to the replica's own WAL
//     (its recovery then resumes replication from the right floor);
//   - every applied record is published on the replica's own commit
//     pipeline, so local subscribers (InvaliDB, SSE feeds, chained
//     replicas) observe the same totally-ordered stream as on the
//     primary, gaps included: a Seq the primary never published is
//     simply absent here too.
//
// Records must arrive in non-decreasing Seq order. ApplyReplicated takes
// ownership of rec.Doc pointers.
// The caller must be a single goroutine — the replication applier.
func (s *Store) ApplyReplicated(recs []wal.Record) (applied int, err error) {
	// One commit for the whole batch, on every return path: in-memory
	// stores flush the outbox once; durable stores wait on the newest
	// waiter — the batch shares the committer's group outcome, and a
	// wedged WAL surfaces there (earlier failures latch).
	var last *wal.Waiter
	defer func() {
		if cerr := s.commit(last); err == nil && cerr != nil {
			err = fmt.Errorf("store: logging replicated batch: %w", cerr)
		}
	}()
	// The apply path is hot — it carries the primary's whole write
	// throughput on one goroutine — so the table lookup is cached across
	// the batch (records overwhelmingly target one table in a row).
	var tbl *table
	getTable := func(name string) (*table, error) {
		if tbl != nil && tbl.name == name {
			return tbl, nil
		}
		t, err := s.table(name)
		if errors.Is(err, ErrNoTable) {
			if _, err = s.createTable(name); err == nil {
				t, err = s.table(name)
			}
		}
		if err != nil {
			return nil, err
		}
		tbl = t
		return t, nil
	}
	for i := range recs {
		rec := &recs[i]
		switch rec.Kind {
		case wal.KindCreateTable:
			created, err := s.createTable(rec.Table)
			if err != nil {
				return applied, err
			}
			if created && s.wal != nil {
				last = s.wal.Enqueue(*rec)
			}
		case wal.KindCreateIndex:
			if _, err := getTable(rec.Table); err != nil {
				return applied, err
			}
			if rec.Seq != 0 && rec.Seq <= s.seq.Load() {
				break // idempotent re-delivery (or already built locally)
			}
			added, err := s.buildIndex(rec.Table, rec.Path)
			if err != nil {
				return applied, err
			}
			if rec.Seq == 0 {
				// Legacy unsequenced DDL (pre-sequencing segments,
				// catch-up shipping): keep the unsequenced record in the
				// local log.
				if added && s.wal != nil {
					last = s.wal.Enqueue(*rec)
				}
				break
			}
			// Sequenced DDL occupies a slot in the primary's write order:
			// stamp it at the primary's Seq like a doc record.
			if last, err = s.stampIndex(rec.Table, rec.Path, rec.Seq); err != nil {
				return applied, err
			}
			applied++
		case wal.KindPut, wal.KindDelete:
			if rec.Seq <= s.seq.Load() {
				break // idempotent re-delivery
			}
			t, err := getTable(rec.Table)
			if err != nil {
				return applied, err
			}
			doc, deleted := rec.Doc, false
			if rec.Kind == wal.KindDelete {
				doc, deleted = &document.Document{ID: rec.ID, Version: rec.Version}, true
			} else if doc == nil {
				return applied, fmt.Errorf("store: replicated put seq %d has no document", rec.Seq)
			}
			u, err := s.Prepare([]Write{{Kind: writeReplicated, Table: t.name, ID: doc.ID, Doc: doc, tombstone: deleted}})
			if err != nil {
				return applied, err
			}
			u.seq = rec.Seq
			u.Install()
			last = u.w
			u.release()
			applied++
		default:
			return applied, fmt.Errorf("store: unknown replicated record kind %q", rec.Kind)
		}
	}
	return applied, nil
}
