// Package ebf implements the Expiring Bloom Filter (EBF), Quaestor's
// cache-coherence data structure (Section 3).
//
// The server-side EBF answers "is this query or record potentially stale?".
// It combines
//
//   - a Counting Bloom filter of currently stale keys (removable entries),
//   - an incrementally maintained flat Bloom filter mirror that can be
//     snapshotted in O(1) amortized work per change, and
//   - an expiration table mapping each key to the highest TTL the server
//     ever issued for it, so invalidated keys stay in the filter exactly
//     until the last cached copy anywhere could have expired (Definition 1).
//
// Request-path protocol:
//
//	ReportRead(key, ttl)      — on every cacheable record response
//	ReportReads(ttl, keys...) — on every cacheable query response: the query
//	                            key and its record keys in ONE batch (one
//	                            partition lookup, one lock, one clock read,
//	                            one expiry pass); ReportRead is the batch of
//	                            one
//	ReportWrite(key)          — on every invalidation detected by InvaliDB;
//	                            the return value says whether caches must be
//	                            purged
//	Snapshot()                — flat copy piggybacked to clients (see
//	                            "Serving a snapshot" below)
//
// Every call costs O(1) per key, whatever the server's history. The one
// structure that grows with history is the expiration table, and its
// sweep policy is amortized: expired entries are swept only once the
// table has doubled since the previous sweep left it (never below
// minSweep entries), so a sweep of n entries is paid for by the ≥ n/2
// insertions since the last one, a table of only-live keys is never
// re-swept, and the table stays within 2× the live keys + minSweep.
// Expiry semantics do not depend on when a sweep runs: an expired entry
// that is still in the table is ignored exactly like a missing one.
// Stats.TrackedKeys and Stats.SweptEntries make both visible.
//
// Serving a snapshot. The paper sizes the filter (DefaultBits, 14.6 KB) so
// that every client can load it at connect and again every Δ; what a poll
// costs the origin therefore scales with connected clients, not with
// traffic, and has to be O(filter) with nothing left behind.
// Partitioned.AppendSnapshot is that path: one clock read, then each table
// partition's mirror is OR-ed under that partition's lock straight into
// the caller's buffer in bloom.Filter wire form — no per-partition Clone,
// no aggregate Filter, no Marshal copy — so with a reused buffer a poll
// allocates nothing here and costs one pass over m/64 words per partition.
// Snapshot and SnapshotTable hand in-process consumers (simulator, tests)
// that wire image parsed back into a bloom.Filter: one aggregation path,
// at the price of a second copy nobody on the request path pays.
//
// The package also provides the client-side view with differential
// whitelisting (Section 3.3) and a per-table partitioned variant whose
// aggregated filter is the bitwise OR of the partitions.
package ebf

import (
	"container/heap"
	"sync"
	"time"

	"quaestor/internal/bloom"
)

// DefaultBits matches the paper's sizing: a filter of ~14.6 KB fits TCP's
// initial congestion window and keeps the false positive rate at 6% with
// 20,000 distinct stale entries.
const DefaultBits = 10 * 1460 * 8

// DefaultHashes is the hash count used with DefaultBits at the paper's
// operating point (m/n ≈ 5.84 bits/entry → k = 4).
const DefaultHashes = 4

// Options configures an EBF instance.
type Options struct {
	// Bits is the Bloom filter size m in bits (default DefaultBits).
	Bits uint32
	// Hashes is the hash-function count k (default DefaultHashes).
	Hashes uint32
	// Clock supplies time; defaults to time.Now (simulators inject theirs).
	Clock func() time.Time
}

func (o *Options) withDefaults() Options {
	out := Options{Bits: DefaultBits, Hashes: DefaultHashes, Clock: time.Now}
	if o == nil {
		return out
	}
	if o.Bits > 0 {
		out.Bits = o.Bits
	}
	if o.Hashes > 0 {
		out.Hashes = o.Hashes
	}
	if o.Clock != nil {
		out.Clock = o.Clock
	}
	return out
}

// EBF is the server-side Expiring Bloom Filter. Safe for concurrent use.
type EBF struct {
	mu    sync.Mutex
	opts  Options
	cbf   *bloom.Counting
	flat  *bloom.Filter // incrementally maintained mirror of cbf
	exp   map[string]time.Time
	stale map[string]time.Time // key -> time it leaves the filter
	heap  expHeap
	// sweepAt is the len(exp) at which the next sweep of expired TTL-table
	// entries runs (see the package comment for the policy).
	sweepAt int

	// Stats counts EBF activity for the evaluation harness.
	stats Stats
}

// Stats aggregates EBF activity counters.
type Stats struct {
	Reads          uint64 // keys reported by ReportRead/ReportReads
	Invalidations  uint64 // ReportWrite calls that found a live TTL
	IgnoredWrites  uint64 // ReportWrite calls with no cached copy to protect
	Expirations    uint64 // keys aged out of the filter
	Snapshots      uint64
	SweptEntries   uint64 // TTL-table entries visited by sweeps
	CurrentEntries int
	TrackedKeys    int // size of the TTL table (live keys + not yet swept)
}

// minSweep is the TTL-table size below which no sweep runs.
const minSweep = 1024

// New creates a server-side EBF.
func New(opts *Options) *EBF {
	o := opts.withDefaults()
	return &EBF{
		opts:    o,
		cbf:     bloom.NewCounting(o.Bits, o.Hashes),
		flat:    bloom.New(o.Bits, o.Hashes),
		exp:     map[string]time.Time{},
		stale:   map[string]time.Time{},
		sweepAt: minSweep,
	}
}

type expEntry struct {
	key string
	at  time.Time
}

type expHeap []expEntry

func (h expHeap) Len() int           { return len(h) }
func (h expHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h expHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expHeap) Push(x any)        { *h = append(*h, x.(expEntry)) }
func (h *expHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// ReportRead records that key was served with the given TTL. The server
// calls this for every cacheable response; the EBF tracks the highest
// outstanding expiration so a later invalidation knows how long the key
// must stay flagged ("A stale query is contained in the EBF until the
// highest TTL that the server previously issued for that query has
// expired").
func (e *EBF) ReportRead(key string, ttl time.Duration) {
	e.ReportReads(ttl, key)
}

// ReportReads is ReportRead for all keys one response was served under —
// a query key and the record keys of its object list — sharing one TTL,
// one clock read, one lock acquisition and one expiry pass.
func (e *EBF) ReportReads(ttl time.Duration, keys ...string) {
	if ttl <= 0 {
		return
	}
	now := e.opts.Clock()
	until := now.Add(ttl)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.expireLocked(now)
	for _, key := range keys {
		if cur, ok := e.exp[key]; !ok || until.After(cur) {
			e.exp[key] = until
		}
	}
	e.stats.Reads += uint64(len(keys))
}

// ReportWrite marks key as invalidated. If some cache may still hold a
// non-expired copy, the key enters the Bloom filter until that copy's TTL
// has passed and ReportWrite returns true (the caller must then purge
// invalidation-based caches). Otherwise no cached copy exists and the write
// is ignored.
func (e *EBF) ReportWrite(key string) bool {
	now := e.opts.Clock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.expireLocked(now)
	until, ok := e.exp[key]
	if !ok || !until.After(now) {
		e.stats.IgnoredWrites++
		return false
	}
	if cur, isStale := e.stale[key]; isStale {
		// Already flagged; extend to the (possibly later) expiration.
		if until.After(cur) {
			e.stale[key] = until
			heap.Push(&e.heap, expEntry{key: key, at: until})
		}
		e.stats.Invalidations++
		return true
	}
	for _, bit := range e.cbf.Add(key) {
		e.flat.SetBit(bit)
	}
	e.stale[key] = until
	heap.Push(&e.heap, expEntry{key: key, at: until})
	e.stats.Invalidations++
	return true
}

// expireLocked removes entries whose last possible cached copy has expired
// ("After their TTL is expired, queries are removed from the Bloom filter").
func (e *EBF) expireLocked(now time.Time) {
	for len(e.heap) > 0 && !e.heap[0].at.After(now) {
		ent := heap.Pop(&e.heap).(expEntry)
		cur, ok := e.stale[ent.key]
		if !ok || cur.After(ent.at) {
			// Entry superseded by a later expiration; skip this heap node.
			continue
		}
		delete(e.stale, ent.key)
		for _, bit := range e.cbf.Remove(ent.key) {
			e.flat.ClearBit(bit)
		}
		e.stats.Expirations++
	}
	if len(e.exp) >= e.sweepAt {
		e.stats.SweptEntries += uint64(len(e.exp))
		for k, until := range e.exp {
			if !until.After(now) {
				delete(e.exp, k)
			}
		}
		e.sweepAt = max(2*len(e.exp), minSweep)
	}
}

// Contains reports whether key is currently considered potentially stale.
func (e *EBF) Contains(key string) bool {
	now := e.opts.Clock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.expireLocked(now)
	return e.cbf.Contains(key)
}

// Snapshot returns a flat, immutable copy of the filter plus its generation
// time t. Clients using a snapshot generated at t1 for a read at t2 obtain
// Δ-atomicity with Δ = t2 − t1 (Theorem 1).
func (e *EBF) Snapshot() Snapshot {
	now := e.opts.Clock()
	var f *bloom.Filter
	entries := e.snapshot(now, func(flat *bloom.Filter) { f = flat.Clone() })
	return Snapshot{Filter: f, GeneratedAt: now, Entries: entries}
}

// snapshot is the one way the flat mirror is read out: under the lock,
// with everything that expired by now removed, take hands the mirror to
// the caller to copy or OR out of (it must not keep it). It returns the
// number of keys flagged stale in that image.
func (e *EBF) snapshot(now time.Time, take func(flat *bloom.Filter)) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.expireLocked(now)
	e.stats.Snapshots++
	take(e.flat)
	return len(e.stale)
}

// StaleCount returns the number of keys currently flagged stale.
func (e *EBF) StaleCount() int {
	now := e.opts.Clock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.expireLocked(now)
	return len(e.stale)
}

// Stats returns a copy of activity counters.
func (e *EBF) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.CurrentEntries = len(e.stale)
	s.TrackedKeys = len(e.exp)
	return s
}

// Snapshot is a flat Bloom filter image with its generation timestamp.
type Snapshot struct {
	Filter      *bloom.Filter
	GeneratedAt time.Time
	Entries     int
}

// Contains reports whether key may be stale according to this snapshot.
func (s Snapshot) Contains(key string) bool {
	if s.Filter == nil {
		return false
	}
	return s.Filter.Contains(key)
}

// Age is the snapshot's age at time now — the client's achieved Δ.
func (s Snapshot) Age(now time.Time) time.Duration {
	if s.GeneratedAt.IsZero() {
		return 0
	}
	return now.Sub(s.GeneratedAt)
}
