package store

import (
	"fmt"
	"slices"
	"strings"
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
	// WriteUpdate applies Spec to a draft of the record's next version
	// (see updated); ErrNotFound when it does not exist, ErrVersionCheck
	// when Spec.IfVersion is not its version.
	WriteUpdate
	// WriteDelete removes the record. Deleting an absent record writes
	// nothing and leaves After nil.
	WriteDelete
	// WriteCheck writes nothing: it refuses its unit, with a
	// ConflictError, unless the record is at Version (0: absent). A
	// unit's checks come before its writes.
	WriteCheck
	// writeReplicated installs Doc exactly as a primary recorded it: an
	// after-image, or with tombstone set the tombstone {ID, Version}.
	writeReplicated
)

// Write is one document write, or check, of a unit Store.Apply commits.
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
	// Version is the version WriteCheck expects.
	Version int64
	// After is set by Apply to the stored after-image, read-only: the
	// tombstone {ID, Version} for a delete, nil for a delete that found
	// nothing. A refused unit leaves every After nil; a unit whose WAL
	// group failed after it was installed keeps them, since readers can
	// see those writes.
	After *document.Document

	tombstone bool
}

// Apply commits writes as one unit: Prepare, Install, Wait. The unit's
// events take contiguous Seqs in one stamp section, reach the WAL as one
// request (one write call, one fsync under wal.FsyncAlways, one Wait) and
// the commit log as one unit, so that within this store a reader — Get,
// Query, a subscriber — sees all of the unit or none of it. Put, Insert,
// Update and Delete are one-write units.
//
// Not atomic: a crash can leave a prefix of a unit in the log (recovery
// replays record by record; no commit marker drops an unfinished unit).
func (s *Store) Apply(writes []Write) error {
	u, err := s.Prepare(writes)
	if err != nil {
		return err
	}
	u.Install()
	return u.Wait()
}

// Prepare decides writes as one unit under the write locks of every table
// they touch (taken in name order), each against the state the unit's
// earlier writes leave, and encodes its log records. A write that fails,
// or a stale WriteCheck, refuses the unit: nothing changes, no lock is
// held and every After is nil. A prepared unit holds its locks until
// Install or Abort.
func (s *Store) Prepare(writes []Write) (*Unit, error) {
	u := unitPool.Get().(*Unit)
	u.s, u.writes = s, writes
	if err := u.resolve(writes); err != nil {
		u.release()
		return nil, refuse(writes, err)
	}
	for _, t := range u.tabs {
		t.mu.Lock()
	}
	now := s.opts.Clock()
	for i := range writes {
		if u.stale != nil && writes[i].Kind != WriteCheck {
			break // the unit is refused; its writes need no deciding
		}
		if err := u.decide(&writes[i], u.of[i], now); err != nil {
			u.Abort()
			return nil, err
		}
	}
	if stale := u.stale; stale != nil {
		u.Abort()
		return nil, &ConflictError{Keys: stale}
	}
	if len(u.evs) > 0 {
		// Encoding fails on an unencodable document, before anything changed.
		var err error
		if u.stamped, u.entry, err = s.encode(u.evs); err != nil {
			u.Abort()
			return nil, err
		}
	}
	return u, nil
}

// Install swaps a prepared unit's records in, stamps its events and
// releases its locks. Wait follows, with no table lock held.
func (u *Unit) Install() {
	for i := range u.evs {
		u.at[i].swap(u.evs[i].After, u.evs[i].Deleted)
	}
	if len(u.evs) > 0 {
		// Stamping inside the tables' critical sections makes the per-key
		// order of Seqs (and of log records) the order the locks serialized.
		u.w = u.s.stamp(u.stamped, u.seq, u.entry)
	}
	for _, t := range u.tabs {
		t.mu.Unlock()
	}
}

// Wait returns once an installed unit is on the commit pipeline (see
// Store.commit), or with its WAL group's error, and ends the unit.
func (u *Unit) Wait() error {
	err := u.s.commit(u.w)
	u.release()
	return err
}

// Abort refuses a prepared unit: it releases its locks, clears every
// After and ends the unit.
func (u *Unit) Abort() {
	for _, t := range u.tabs {
		t.mu.Unlock()
	}
	refuse(u.writes, nil)
	u.release()
}

// ConflictError refuses a unit whose WriteChecks found their records at
// other versions. Keys names each as "table/id", in the unit's order.
type ConflictError struct{ Keys []string }

func (e *ConflictError) Error() string { return "store: stale read of " + strings.Join(e.Keys, ", ") }

// refuse clears the After that decide set on a unit's earlier writes,
// none of which was installed, and returns err.
func refuse(writes []Write, err error) error {
	for i := range writes {
		writes[i].After = nil
	}
	return err
}

// Unit is a unit of writes from Prepare to Wait or Abort. Units are
// pooled, so a one-write unit allocates nothing here.
type Unit struct {
	s      *Store
	writes []Write
	seq    uint64   // a replayed unit's first Seq at its primary; 0: the next Seq
	tabs   []*table // distinct tables, sorted by name: the lock order
	of     []*table // of[i] is writes[i]'s table
	evs    []ChangeEvent
	at     []*table // at[i] is evs[i]'s table
	// last maps a record to its newest event in evs, once the unit is
	// long enough that a backward scan would cost more.
	last  map[recordRef]int
	stale []string // the keys of stale checks
	// stamped and entry are encode's, w is stamp's.
	stamped []ChangeEvent
	entry   wal.Entry
	w       *wal.Waiter
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

var unitPool = sync.Pool{New: func() any { return new(Unit) }}

func (u *Unit) release() {
	if cap(u.evs) > maxPooledUnit {
		unitPool.Put(new(Unit)) // one huge unit does not pin its buffers
		return
	}
	u.s, u.writes, u.seq, u.stale, u.stamped, u.entry, u.w = nil, nil, 0, nil, nil, wal.Entry{}, nil
	clear(u.tabs)
	clear(u.of)
	clear(u.evs)
	clear(u.at)
	clear(u.last)
	u.tabs, u.of, u.evs, u.at = u.tabs[:0], u.of[:0], u.evs[:0], u.at[:0]
	unitPool.Put(u)
}

// resolve checks each write's shape and finds its table.
func (u *Unit) resolve(writes []Write) error {
	for i := range writes {
		w := &writes[i]
		if w.Kind != writeReplicated && u.s.readOnly.Load() {
			return ErrReadOnly
		}
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
			if t, err = u.s.table(w.Table); err != nil {
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
func (u *Unit) current(t *table, id string) (doc, tomb *document.Document) {
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
// queues its event; a delete of an absent record and a check queue none,
// and a stale check is noted in stale. It is the one place that decides
// what a write does. Caller holds every table's lock.
func (u *Unit) decide(w *Write, t *table, now time.Time) error {
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
		var err error
		if next, err = updated(prev, w.Spec); err != nil {
			return err
		}
	case WriteDelete:
		if prev == nil {
			w.After = nil
			return nil
		}
		next, deleted = &document.Document{ID: w.ID, Version: prev.Version + 1}, true
	case WriteCheck:
		if prev == nil && w.Version != 0 || prev != nil && prev.Version != w.Version {
			u.stale = append(u.stale, t.name+"/"+w.ID)
		}
		return nil
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
