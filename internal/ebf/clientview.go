package ebf

import (
	"sync"
	"time"
)

// ClientView is the client SDK's wrapper around a flat EBF snapshot.
//
// It implements differential whitelisting (Section 3.3): every key the
// client has revalidated since the last snapshot refresh is considered
// fresh until the next renewal, even while the (possibly lagging) Bloom
// filter still flags it. This compensates for discrepancies between
// estimated and actual TTLs that would otherwise keep a key "stale" for an
// extended period.
type ClientView struct {
	mu        sync.Mutex
	snap      Snapshot
	whitelist map[string]struct{}
}

// NewClientView wraps an initial snapshot (fetched at connect time).
func NewClientView(snap Snapshot) *ClientView {
	return &ClientView{snap: snap, whitelist: map[string]struct{}{}}
}

// Refresh installs a newer snapshot and clears the whitelist — entries
// revalidated before the new snapshot are reflected in it already.
func (v *ClientView) Refresh(snap Snapshot) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if snap.GeneratedAt.Before(v.snap.GeneratedAt) {
		return // never move backwards in time
	}
	v.snap = snap
	v.whitelist = map[string]struct{}{}
}

// IsStale reports whether a read of key must be promoted to a revalidation:
// the key appears in the Bloom filter and has not been revalidated since
// the last refresh.
func (v *ClientView) IsStale(key string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.whitelist[key]; ok {
		return false
	}
	return v.snap.Contains(key)
}

// MarkRevalidated whitelists a key after the client revalidated it.
func (v *ClientView) MarkRevalidated(key string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.whitelist[key] = struct{}{}
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
