package store

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/wal"
)

// walSubdir is where log segments live inside Options.DataDir (the
// snapshot sits next to it as wal.SnapshotName).
const walSubdir = "wal"

// SnapshotInfo describes one completed snapshot.
type SnapshotInfo struct {
	// Seq is the sequence floor: log records with Seq > Seq are replayed
	// over this snapshot on recovery.
	Seq    uint64    `json:"seq"`
	Docs   int       `json:"docs"`
	Bytes  int64     `json:"bytes"`
	At     time.Time `json:"at"`
	TookMs float64   `json:"tookMs"`
}

// RecoveryInfo describes what Open reconstructed from disk.
type RecoveryInfo struct {
	SnapshotSeq     uint64  `json:"snapshotSeq"`
	SnapshotDocs    int     `json:"snapshotDocs"`
	ReplayedRecords int     `json:"replayedRecords"` // doc records applied from the log tail
	TornTail        bool    `json:"tornTail"`        // last segment ended mid-record (crash)
	LastSeq         uint64  `json:"lastSeq"`         // restored sequence counter
	Tables          int     `json:"tables"`
	Indexes         int     `json:"indexes"` // secondary indexes rebuilt
	TookMs          float64 `json:"tookMs"`
}

// DurabilityStats aggregates the WAL, snapshot and recovery state of a
// durable store.
type DurabilityStats struct {
	DataDir      string        `json:"dataDir"`
	WAL          wal.Stats     `json:"wal"`
	LastSnapshot *SnapshotInfo `json:"lastSnapshot,omitempty"`
	Recovery     RecoveryInfo  `json:"recovery"`
	// AutoSnapshots counts snapshots triggered by Options.AutoSnapshotBytes.
	AutoSnapshots uint64 `json:"autoSnapshots,omitempty"`
}

// DurabilityStats reports WAL/snapshot/recovery state; ok is false for
// in-memory stores.
func (s *Store) DurabilityStats() (st DurabilityStats, ok bool) {
	if s.wal == nil {
		return DurabilityStats{}, false
	}
	st = DurabilityStats{DataDir: s.opts.DataDir, WAL: s.wal.Stats(), AutoSnapshots: s.autoSnaps.Load()}
	s.snapMu.Lock()
	if s.lastSnap != nil {
		snap := *s.lastSnap
		st.LastSnapshot = &snap
	}
	st.Recovery = s.recovery
	s.snapMu.Unlock()
	return st, true
}

// recover rebuilds the store from DataDir: load the latest snapshot,
// replay the log tail in sequence order (tolerating a torn final
// record), rebuild secondary indexes through the regular CreateIndex
// path, restore the sequence counter, and finally open the WAL for
// appending. Called from Open before the store is published, so the raw
// apply helpers run without contention.
func (s *Store) recover() error {
	start := time.Now()
	dataDir := s.opts.DataDir
	walDir := filepath.Join(dataDir, walSubdir)

	// pendingIdx collects every index definition seen (snapshot meta +
	// log DDL records) for the rebuild pass at the end.
	pendingIdx := map[string]map[string]bool{}
	addIndex := func(tbl, path string) {
		if pendingIdx[tbl] == nil {
			pendingIdx[tbl] = map[string]bool{}
		}
		pendingIdx[tbl][path] = true
	}

	var meta wal.SnapshotMeta
	snapDocs := 0
	loaded, err := wal.LoadSnapshot(dataDir,
		func(m wal.SnapshotMeta) error {
			meta = m
			for _, tm := range m.Tables {
				if _, err := s.createTable(tm.Name); err != nil {
					return err
				}
				t := s.tables[tm.Name]
				t.verFloor = max(t.verFloor, tm.VersionFloor)
				for _, p := range tm.Indexes {
					addIndex(tm.Name, p)
				}
			}
			return nil
		},
		func(tbl string, doc *document.Document) error {
			snapDocs++
			return s.restore(tbl, doc, false)
		})
	if err != nil {
		return fmt.Errorf("store: loading snapshot: %w", err)
	}

	// Segments written before the stamp section made file order Seq order
	// can hold doc records slightly out of sequence across keys, so
	// collect the tail and sort by Seq before applying (a no-op pass on
	// newer logs); per key, Seq order is the serialization order. DDL
	// records apply in file order and replay unconditionally — they are
	// idempotent and may predate the snapshot.
	var docRecs []wal.Record
	res, err := wal.Scan(walDir, func(r *wal.Record) error {
		switch r.Kind {
		case wal.KindCreateTable:
			_, err := s.createTable(r.Table)
			return err
		case wal.KindCreateIndex:
			addIndex(r.Table, r.Path)
			return nil
		case wal.KindPut, wal.KindDelete:
			if r.Seq > meta.Seq {
				docRecs = append(docRecs, *r)
			}
			return nil
		default:
			return fmt.Errorf("store: unknown wal record kind %q", r.Kind)
		}
	})
	if err != nil {
		return fmt.Errorf("store: scanning wal: %w", err)
	}
	sort.SliceStable(docRecs, func(i, j int) bool { return docRecs[i].Seq < docRecs[j].Seq })
	for i := range docRecs {
		r := &docRecs[i]
		// A doc record can reference a table whose KindCreateTable record
		// was lost in a torn tail: CreateTable exposes the table in memory
		// before its DDL append commits, so a concurrent writer's record
		// can land in an earlier batch. Re-create the table rather than
		// refusing to open the store.
		if _, err := s.createTable(r.Table); err != nil {
			return fmt.Errorf("store: replaying wal record seq %d: %w", r.Seq, err)
		}
		doc, deleted := r.Doc, false
		if r.Kind == wal.KindDelete {
			doc, deleted = &document.Document{ID: r.ID, Version: r.Version}, true
		}
		if err := s.restore(r.Table, doc, deleted); err != nil {
			return fmt.Errorf("store: replaying wal record seq %d: %w", r.Seq, err)
		}
	}

	lastSeq := meta.Seq
	if res.LastSeq > lastSeq {
		lastSeq = res.LastSeq
	}
	//lint:quaestor seqpublish -- recovery restores the counter before the store is published; nothing is being stamped yet
	s.seq.Store(lastSeq)

	// Rebuild secondary indexes structurally (no re-logging, no
	// re-sequencing — the DDL records replayed are already in the log).
	nIdx := 0
	for tbl, paths := range pendingIdx {
		for _, p := range slices.Sorted(maps.Keys(paths)) {
			if _, err := s.buildIndex(tbl, p); err != nil {
				return fmt.Errorf("store: rebuilding index %s:%s: %w", tbl, p, err)
			}
			nIdx++
		}
	}

	// The pipeline tails from the recovered sequence; the WAL committer's
	// post-commit hook feeds it, so events hit the change stream only
	// after their record is written (never for one the log rejected), in
	// the commit queue's order — which the stamp section made Seq order.
	// The hook's event buffer is committer-owned scratch (Append copies).
	s.openPipeline(lastSeq)
	var hookEvents []ChangeEvent
	l, err := wal.Open(walDir, &wal.Options{
		Fsync:         s.opts.Durability.Fsync,
		FsyncInterval: s.opts.Durability.FsyncInterval,
		SegmentBytes:  s.opts.Durability.SegmentBytes,
		OnCommit: func(payloads []any) {
			hookEvents = hookEvents[:0]
			for _, p := range payloads {
				hookEvents = append(hookEvents, *p.(*ChangeEvent))
			}
			s.pubMu.Lock()
			s.pipeline.Append(hookEvents)
			s.pubMu.Unlock()
			s.maybeAutoSnapshot()
		},
	})
	if err != nil {
		return err
	}
	s.wal = l
	s.recovery = RecoveryInfo{
		SnapshotSeq:     meta.Seq,
		SnapshotDocs:    snapDocs,
		ReplayedRecords: len(docRecs),
		TornTail:        res.TornTail,
		LastSeq:         lastSeq,
		Tables:          len(s.tables),
		Indexes:         nIdx,
		TookMs:          float64(time.Since(start)) / float64(time.Millisecond),
	}
	if loaded {
		s.lastSnap = &SnapshotInfo{Seq: meta.Seq, Docs: snapDocs, At: meta.CreatedAt}
		if fi, err := os.Stat(filepath.Join(dataDir, wal.SnapshotName)); err == nil {
			s.lastSnap.Bytes = fi.Size()
		}
	}
	return nil
}

// restore installs one recovered record exactly as logged — an after-image,
// or a tombstone {ID, Version} when deleted (removing an already-absent id
// removes nothing: the record may predate the snapshot's state) —
// bypassing WAL, versioning and the change stream. Recovery-only: the
// store is not published yet, so the table needs no lock.
func (s *Store) restore(tableName string, doc *document.Document, deleted bool) error {
	t, err := s.table(tableName)
	if err != nil {
		return err
	}
	t.swap(doc, deleted)
	return nil
}

// Snapshot writes a point-in-time snapshot and truncates the log
// segments it makes redundant. The protocol is crash-safe and runs
// against live writers:
//
//  1. capture the sequence floor S,
//  2. rotate the WAL (every record enqueued so far is in a sealed
//     segment, and its write is therefore visible to the scan below),
//  3. collect each table's document pointers under its read lock and
//     write them out after releasing it (documents are copy-on-write) —
//     every write with seq ≤ S is guaranteed visible, later ones are
//     harmless because replay re-applies after-images idempotently in
//     sequence order,
//  4. commit the snapshot atomically (tmp file, fsync, rename),
//  5. delete the sealed segments.
//
// A crash before (4) leaves the previous snapshot plus the whole log; a
// crash after (4) recovers from the new snapshot plus the tail.
func (s *Store) Snapshot() (SnapshotInfo, error) {
	if s.wal == nil {
		return SnapshotInfo{}, ErrNotDurable
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	start := time.Now()

	floor := s.seq.Load()
	sealed, err := s.wal.Rotate()
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: rotating wal for snapshot: %w", err)
	}

	tables, meta, err := s.snapshotTablesMeta(floor)
	if err != nil {
		return SnapshotInfo{}, err
	}

	w, err := wal.NewSnapshotWriter(s.opts.DataDir)
	if err != nil {
		return SnapshotInfo{}, err
	}
	if err := w.Meta(meta); err != nil {
		w.Abort()
		return SnapshotInfo{}, err
	}
	if err := writeDocs(tables, w.Doc); err != nil {
		w.Abort()
		return SnapshotInfo{}, fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := w.Commit(); err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: committing snapshot: %w", err)
	}
	if err := s.wal.Remove(sealed); err != nil {
		return SnapshotInfo{}, fmt.Errorf("store: truncating wal: %w", err)
	}

	info := SnapshotInfo{
		Seq:    floor,
		Docs:   w.Docs(),
		Bytes:  w.Bytes(),
		At:     meta.CreatedAt,
		TookMs: float64(time.Since(start)) / float64(time.Millisecond),
	}
	s.lastSnap = &info
	return info, nil
}
