package ebf

import (
	"slices"
	"sync"
	"time"
)

// ClientView is the client SDK's wrapper around a flat EBF snapshot.
//
// It implements differential whitelisting (Section 3.3): every key the
// client has revalidated since the last snapshot refresh is considered
// fresh, even while the (possibly lagging) Bloom filter still flags it.
// This compensates for discrepancies between estimated and actual TTLs
// that would otherwise keep a key "stale" for an extended period.
//
// The paper lets a whitelist entry live until the next renewal, so a key
// that stays flagged for minutes is revalidated once per Δ for minutes.
// Here an entry outlives a renewal when the new snapshot proves nothing
// happened to the key in between (Refresh; the argument is in the package
// comment, "Renewing a snapshot"); every renewal that cannot prove it
// clears the whitelist as the paper does.
type ClientView struct {
	mu   sync.Mutex
	snap Snapshot
	// gen counts installed snapshots. A revalidation is whitelisted only
	// under the generation it was sent under: one that straddles a renewal
	// proves nothing about the new image.
	gen       uint64
	whitelist map[string]whitelisted // a subset of the keys snap flags
}

type whitelisted struct {
	carry   bool // answered by the filter's own node: may outlive a renewal
	carried bool // has outlived one
}

// State is what a view knows about a key.
type State uint8

const (
	// Clean: the filter does not flag the key.
	Clean State = iota
	// Stale: flagged and not whitelisted — a read must revalidate.
	Stale
	// Revalidated: flagged, and revalidated under the installed snapshot.
	Revalidated
	// Carried: flagged, revalidated under an earlier snapshot and carried
	// across every renewal since.
	Carried
)

// NewClientView wraps an initial snapshot (fetched at connect time).
func NewClientView(snap Snapshot) *ClientView {
	return &ClientView{snap: snap, whitelist: map[string]whitelisted{}}
}

// Refresh installs a newer snapshot, which it may reorder Recent of. A
// whitelisted key is kept iff the snapshot is Covered from exactly the
// position of the one it replaces, the key's revalidation may be carried,
// its fingerprint is not among Recent and the new filter still flags it;
// a snapshot that is not — another instance's or node's, one whose logs had
// overflowed, an in-process or old server's that carries no position —
// clears the whitelist. It reports whether the renewal was covered: false
// is one that had to clear.
func (v *ClientView) Refresh(snap Snapshot) (covered bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if snap.GeneratedAt.Before(v.snap.GeneratedAt) {
		return true // never move backwards in time
	}
	covered = snap.Covered && snap.At.Epoch != 0 && snap.At.Epoch == v.snap.At.Epoch && snap.Since == v.snap.At.Cursor
	switch {
	case len(v.whitelist) == 0: // nothing to carry or clear
	case !covered:
		v.whitelist = map[string]whitelisted{}
	default:
		slices.Sort(snap.Recent)
		for key, w := range v.whitelist {
			if _, listed := slices.BinarySearch(snap.Recent, Fingerprint(key)); listed || !w.carry || !snap.Contains(key) {
				delete(v.whitelist, key)
			} else if !w.carried {
				v.whitelist[key] = whitelisted{carry: true, carried: true}
			}
		}
	}
	v.snap = snap
	v.gen++
	return covered
}

// Lookup reports what the view knows about key, and the generation of the
// snapshot that says so: a revalidation started on this answer hands it
// back to Whitelist.
func (v *ClientView) Lookup(key string) (State, uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	switch w, ok := v.whitelist[key]; {
	case ok && w.carried:
		return Carried, v.gen
	case ok:
		return Revalidated, v.gen
	case v.snap.Contains(key):
		return Stale, v.gen
	}
	return Clean, v.gen
}

// IsStale reports whether a read of key must be promoted to a revalidation:
// the key appears in the Bloom filter and is not whitelisted.
func (v *ClientView) IsStale(key string) bool {
	state, _ := v.Lookup(key)
	return state == Stale
}

// Whitelist records that a request sent under snapshot generation gen
// revalidated key end to end. It is dropped when another snapshot has been
// installed meanwhile. carry says the answer came from the node the filter
// comes from; an answer from a node that may lag behind it (a replica)
// whitelists the key until the next renewal only.
func (v *ClientView) Whitelist(key string, gen uint64, carry bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if gen == v.gen {
		v.record(key, carry)
	}
}

// MarkRevalidated whitelists a key until the next renewal — the paper's
// rule, for consumers that revalidate and renew in one thread of control.
func (v *ClientView) MarkRevalidated(key string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.record(key, false)
}

// record keeps the whitelist within the flagged keys: an entry for a key
// the filter does not flag would change no answer.
func (v *ClientView) record(key string, carry bool) {
	if v.snap.Contains(key) {
		v.whitelist[key] = whitelisted{carry: carry}
	}
}

// Position returns the installed snapshot's place in its origin's flag log;
// a renewal echoes it so the origin can say what was flagged since.
func (v *ClientView) Position() Position {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.snap.At
}

// Age returns the snapshot age — the client's current Δ bound.
func (v *ClientView) Age(now time.Time) time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.snap.Age(now)
}

// GeneratedAt returns the current snapshot's generation time.
func (v *ClientView) GeneratedAt() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.snap.GeneratedAt
}
