package store

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/wal"
)

// WriteKind says what a Write does.
type WriteKind uint8

// Write kinds.
const (
	// WritePut stores Doc under ID, creating the record or replacing it
	// wholesale (upsert).
	WritePut WriteKind = iota
	// WriteInsert stores Doc under ID; ErrExists when the record exists.
	WriteInsert
	// WriteUpdate applies Spec to a copy of the record; ErrNotFound when
	// it does not exist, ErrVersionCheck when Spec.IfVersion is not its
	// version.
	WriteUpdate
	// WriteDelete removes the record. Deleting an absent record writes
	// nothing and leaves After nil.
	WriteDelete
	// writeReplicated installs Doc exactly as a primary recorded it: an
	// after-image, or with tombstone set the tombstone {ID, Version}.
	writeReplicated
)

// Write is one document write of a unit Store.Apply commits.
type Write struct {
	Kind  WriteKind
	Table string
	ID    string
	// Doc is what WritePut and WriteInsert store under ID. It belongs to
	// the store from then on (document.Document's ownership rule), which
	// sets its ID and Version.
	Doc *document.Document
	// Spec is WriteUpdate's partial update.
	Spec UpdateSpec
	// After is set by Apply to the stored after-image, read-only: the
	// tombstone {ID, Version} for a delete, nil for a delete that found
	// nothing. A refused unit leaves every After nil; a unit whose WAL
	// group failed after it was installed keeps them, since readers can
	// see those writes.
	After *document.Document

	tombstone bool
}

// Apply commits writes as one unit. Every write is decided against the
// state the unit's earlier writes leave, under the write locks of every
// table the unit touches (taken in name order), before any is installed:
// one that fails refuses the whole unit and changes nothing. The unit's
// events take contiguous Seqs in one stamp section, reach the WAL as one
// request (one write call, one fsync under wal.FsyncAlways, one Wait) and
// the commit log as one unit, so that within this store a reader — Get,
// Query, a subscriber — sees all of the unit or none of it. Put, Insert,
// Update and Delete are one-write units.
//
// Not atomic: a crash can leave a prefix of a unit in the log (recovery
// replays record by record; no commit marker drops an unfinished unit),
// and a unit spans one store — cluster.Router applies one unit per shard.
func (s *Store) Apply(writes []Write) error {
	if s.readOnly.Load() {
		return refuse(writes, ErrReadOnly)
	}
	w, err := s.apply(writes, 0)
	if err != nil {
		return err
	}
	return s.commit(w)
}

// apply decides, installs and stamps writes as one unit — at the next
// Seqs, or from seq when a replica replays its primary's — and returns
// the waiter commit takes (nil on in-memory stores, and when the unit
// wrote nothing).
func (s *Store) apply(writes []Write, seq uint64) (*wal.Waiter, error) {
	u := unitPool.Get().(*unit)
	defer u.release()
	if err := u.resolve(s, writes); err != nil {
		return nil, refuse(writes, err)
	}
	for _, t := range u.tabs {
		t.mu.Lock()
	}
	defer func() {
		for _, t := range u.tabs {
			t.mu.Unlock()
		}
	}()
	now := s.opts.Clock()
	for i := range writes {
		if err := u.decide(&writes[i], u.of[i], now); err != nil {
			return nil, refuse(writes, err)
		}
	}
	if len(u.evs) == 0 {
		return nil, nil
	}
	// Encoding fails on an unencodable document, before anything changed.
	evs, entry, err := s.encode(u.evs)
	if err != nil {
		return nil, refuse(writes, err)
	}
	for i := range u.evs {
		u.at[i].swap(u.evs[i].After, u.evs[i].Deleted)
	}
	// Stamping inside the tables' critical sections makes the per-key
	// order of Seqs (and of log records) the order the locks serialized.
	return s.stamp(evs, seq, entry), nil
}

// refuse clears the After that decide set on a unit's earlier writes,
// none of which was installed, and returns err.
func refuse(writes []Write, err error) error {
	for i := range writes {
		writes[i].After = nil
	}
	return err
}

// unit is apply's scratch: the tables a unit touches and the events it
// decided. Units are pooled, so a one-write unit allocates nothing here.
type unit struct {
	tabs []*table // distinct tables, sorted by name: the lock order
	of   []*table // of[i] is writes[i]'s table
	evs  []ChangeEvent
	at   []*table // at[i] is evs[i]'s table
	// last maps a record to its newest event in evs, once the unit is
	// long enough that a backward scan would cost more.
	last map[recordRef]int
}

type recordRef struct {
	t  *table
	id string
}

// scanLimit is the unit length up to which decide finds a record's
// earlier event by scanning evs backwards instead of through last.
const scanLimit = 8

// maxPooledUnit is the longest unit whose scratch is pooled.
const maxPooledUnit = 4096

var unitPool = sync.Pool{New: func() any { return new(unit) }}

func (u *unit) release() {
	if cap(u.evs) > maxPooledUnit {
		unitPool.Put(new(unit)) // one huge unit does not pin its buffers
		return
	}
	clear(u.tabs)
	clear(u.of)
	clear(u.evs)
	clear(u.at)
	clear(u.last)
	u.tabs, u.of, u.evs, u.at = u.tabs[:0], u.of[:0], u.evs[:0], u.at[:0]
	unitPool.Put(u)
}

// resolve checks each write's shape and finds its table.
func (u *unit) resolve(s *Store, writes []Write) error {
	for i := range writes {
		w := &writes[i]
		if w.ID == "" {
			return ErrEmptyID
		}
		if (w.Kind == WritePut || w.Kind == WriteInsert || w.Kind == writeReplicated) && w.Doc == nil {
			return ErrNilDocument
		}
		var t *table
		for _, have := range u.tabs {
			if have.name == w.Table {
				t = have
				break
			}
		}
		if t == nil {
			var err error
			if t, err = s.table(w.Table); err != nil {
				return err
			}
			at, _ := slices.BinarySearchFunc(u.tabs, t.name, func(x *table, name string) int {
				switch {
				case x.name < name:
					return -1
				case x.name > name:
					return 1
				}
				return 0
			})
			u.tabs = slices.Insert(u.tabs, at, t)
		}
		u.of = append(u.of, t)
	}
	return nil
}

// current returns what the record holds as the unit's earlier writes left
// it: the document (nil when absent) and, when the unit deleted it, the
// tombstone. Caller holds t.mu.
func (u *unit) current(t *table, id string) (doc, tomb *document.Document) {
	i := -1
	if len(u.evs) <= scanLimit {
		for j := len(u.evs) - 1; j >= 0; j-- {
			if u.at[j] == t && u.evs[j].After.ID == id {
				i = j
				break
			}
		}
	} else if j, ok := u.last[recordRef{t, id}]; ok {
		i = j
	}
	if i < 0 {
		return t.docs[id], nil
	}
	if ev := &u.evs[i]; ev.Deleted {
		return nil, ev.After
	}
	return u.evs[i].After, nil
}

// decide settles one write against the unit's view of its record and
// queues its event; a delete of an absent record queues none. Caller
// holds every table's lock.
func (u *unit) decide(w *Write, t *table, now time.Time) error {
	prev, tomb := u.current(t, w.ID)
	next, deleted := w.Doc, false
	switch w.Kind {
	case WritePut, WriteInsert:
		switch {
		case prev == nil:
			// Past every tombstone of the id, the table's and the unit's.
			next.Version = t.firstVersion(w.ID)
			if tomb != nil {
				next.Version = max(next.Version, tomb.Version+1)
			}
		case w.Kind == WriteInsert:
			return fmt.Errorf("%w: %s/%s", ErrExists, t.name, w.ID)
		default:
			next.Version = prev.Version + 1
		}
		next.ID = w.ID
	case WriteUpdate:
		if prev == nil {
			return fmt.Errorf("%w: %s/%s", ErrNotFound, t.name, w.ID)
		}
		if v := w.Spec.IfVersion; v != 0 && prev.Version != v {
			return fmt.Errorf("%w: have %d, want %d", ErrVersionCheck, prev.Version, v)
		}
		next = prev.Clone()
		if err := ApplySpec(next, w.Spec); err != nil {
			return err
		}
		next.Version = prev.Version + 1
	case WriteDelete:
		if prev == nil {
			w.After = nil
			return nil
		}
		next, deleted = &document.Document{ID: w.ID, Version: prev.Version + 1}, true
	case writeReplicated:
		deleted = w.tombstone // exactly as recorded
	default:
		return fmt.Errorf("store: unknown write kind %d", w.Kind)
	}
	if !deleted {
		// The store owns next from here on: sealing it now lets the log's
		// encoding of it be its wire form.
		next.Seal()
	}
	ev := ChangeEvent{Table: t.name, Op: OpInsert, Deleted: deleted, Before: prev, After: next, Time: now}
	if deleted {
		ev.Op = OpDelete
	} else if prev != nil {
		ev.Op = OpUpdate
	}
	u.evs = append(u.evs, ev)
	u.at = append(u.at, t)
	if n := len(u.evs); n > scanLimit {
		if u.last == nil {
			u.last = make(map[recordRef]int)
		}
		if n == scanLimit+1 {
			for j := range u.evs[:n-1] {
				u.last[recordRef{u.at[j], u.evs[j].After.ID}] = j
			}
		}
		u.last[recordRef{t, w.ID}] = n - 1
	}
	w.After = next
	return nil
}
