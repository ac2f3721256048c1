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
//	                            purged, i.e. whether the key was flagged
//	Snapshot()                — flat copy piggybacked to clients (see
//	                            "Serving a snapshot" and "Renewing a
//	                            snapshot" below)
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
// Renewing a snapshot. A written key stays in the filter until the highest
// TTL issued for it has run out — minutes — and the paper lets a client skip
// a key it has revalidated only until its next renewal (differential
// whitelisting, Section 3.3; ClientView), one Δ later. So one write makes
// every session that holds the key revalidate it once per Δ for minutes,
// each time to learn what it learned a Δ before. What the client lacks is
// not a fresher copy but the knowledge that nothing happened since, and the
// origin has it:
//
//   - The flag log. Every ReportWrite that returns true takes the next
//     position of one counter per Partitioned and appends (position,
//     Fingerprint(key)) to a ring of FlagLogSize entries in its partition,
//     in the critical section that sets the filter bits. The instance is
//     named by an epoch drawn when it is built.
//   - The position. AppendSnapshot reads the counter before it visits the
//     first partition: every flagging up to that cursor is in the image
//     (or has already aged out of the filter). /v1/ebf serves (epoch,
//     cursor) with every body, and a renewing client echoes the pair of
//     the snapshot it holds.
//   - Coverage. A poll positioned at `since` is covered when the epoch is
//     this instance's, since is not ahead of the cursor, no partition it
//     covers has overwritten a flagging after since, and what was flagged
//     after since fits FlagLogSize fingerprints. Only then is Recent
//     served: the fingerprint of every flagging after since that the pass
//     met under the partition locks, ones past the new cursor included
//     (they are listed again next time). It is the whole list or none,
//     never a part.
//
// ClientView.Refresh keeps a whitelisted key iff the new snapshot is
// covered from exactly the cursor of the snapshot it replaces, in the same
// epoch; the key's fingerprint is not in Recent; the new filter still flags
// the key (so the whitelist is a subset of the flagged keys, bounded like
// Entries); and the revalidation may be carried at all: it was sent under
// the snapshot generation still installed when its answer arrived, and the
// answer came from the filter's own node, not from a replica that may lag
// behind it (such an entry lasts until the next renewal, as in the paper).
//
// Why this keeps Δ-atomicity, by induction over renewals. An entry recorded
// under snapshot n was validated end to end (Cache-Control: no-cache) after
// snapshot n was generated. Recent of snapshot n+1 lists every flagging
// after cursor n, and a flagging not yet visible to the pass that read
// cursor n takes a later position. So "not listed" means no flagged write
// between the validation and snapshot n+1: the copy is as fresh as that of
// a key the filter does not flag, which is all Theorem 1 asks of a read
// under snapshot n+1 — and it is the premise again for n+2. A write the filter
// does not flag happens only while no TTL is outstanding, that is, after
// this client's own copy has expired, and an expired copy is refetched
// whatever the whitelist says. (By a plain request, which a cache on the way
// may answer: it relayed the validation, so it holds the validated version
// or a newer one — or, where the client was answered 304 for a version it
// got elsewhere, as a query's member, an older one, which the SDK's
// monotonic-read check refuses and revalidates.) Fingerprints can collide;
// a collision drops an entry that could have stayed, never the reverse.
//
// Everything else degrades to the paper's clear-on-renewal, in the same
// Refresh: a ring that overflowed or a list over budget (Stats
// .FlagLogDropped, .UncoveredPolls), an origin that restarted (new epoch)
// or keeps no log (no epoch), a filter fetched from another node (its own
// epoch — a replica's piggybacked filter, and the primary's next one after
// it), a position from the future, and every in-process Snapshot, which is
// taken from nowhere and so never covered (the simulator keeps the paper's
// rule). The cost at the origin is 16 bytes per flagging in a fixed 6 KB
// ring per table and at most 4 KB per poll, in the same pooled pass.
//
// The package also provides the client-side view with differential
// whitelisting (Section 3.3) and a per-table partitioned variant whose
// aggregated filter is the bitwise OR of the partitions.
package ebf

import (
	"container/heap"
	"sync"
	"sync/atomic"
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
	// log remembers the newest flaggings (see "Renewing a snapshot"); pos
	// numbers them, and is shared by the partitions of one Partitioned.
	log flagLog
	pos *atomic.Uint64

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
	// FlagLogDropped counts flaggings that fell out of a partition's flag
	// log; UncoveredPolls counts positioned polls (Partitioned only) that
	// were answered without "recent" — each clears one client's whitelist.
	FlagLogDropped uint64 `json:"flagLogDropped"`
	UncoveredPolls uint64 `json:"uncoveredPolls"`
}

// minSweep is the TTL-table size below which no sweep runs.
const minSweep = 1024

// New creates a server-side EBF.
func New(opts *Options) *EBF {
	return newEBF(opts.withDefaults(), new(atomic.Uint64))
}

// newEBF creates an EBF whose flaggings take their positions from pos.
func newEBF(o Options, pos *atomic.Uint64) *EBF {
	return &EBF{
		opts:    o,
		cbf:     bloom.NewCounting(o.Bits, o.Hashes),
		flat:    bloom.New(o.Bits, o.Hashes),
		exp:     map[string]time.Time{},
		stale:   map[string]time.Time{},
		sweepAt: minSweep,
		pos:     pos,
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
	return e.reportWriteLocked(now, key)
}

// ReportWrites is ReportWrite for the written keys of one unit under one
// clock reading, one lock acquisition and one expiry pass. It appends to
// flagged the position in keys of each key it flagged (base is keys[0]'s
// position) and returns it.
func (e *EBF) ReportWrites(keys []string, base int, flagged []int) []int {
	now := e.opts.Clock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.expireLocked(now)
	for i, key := range keys {
		if e.reportWriteLocked(now, key) {
			flagged = append(flagged, base+i)
		}
	}
	return flagged
}

// reportWriteLocked is ReportWrite after the expiry pass. Caller holds
// e.mu.
func (e *EBF) reportWriteLocked(now time.Time, key string) bool {
	until, ok := e.exp[key]
	if !ok || !until.After(now) {
		e.stats.IgnoredWrites++
		return false
	}
	cur, flagged := e.stale[key]
	if !flagged {
		for _, bit := range e.cbf.Add(key) {
			e.flat.SetBit(bit)
		}
	}
	// Already flagged: extend to the (possibly later) expiration.
	if !flagged || until.After(cur) {
		e.stale[key] = until
		heap.Push(&e.heap, expEntry{key: key, at: until})
	}
	e.stats.Invalidations++
	// Position and bits change in one critical section: a poll that reads
	// the counter and then takes this lock sees every flagging up to it.
	e.log.add(e.pos.Add(1), Fingerprint(key))
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
	s.FlagLogDropped = e.log.dropped()
	return s
}

// Snapshot is a flat Bloom filter image with its generation timestamp.
type Snapshot struct {
	Filter      *bloom.Filter
	GeneratedAt time.Time
	Entries     int
	// At is the image's position in its origin's flag log: every flagging
	// up to At.Cursor is in Filter. Zero when the origin does not say.
	At Position
	// Covered says the origin also told what it flagged since the poller's
	// last image: Recent holds the Fingerprint of every key flagged after
	// position Since of epoch At.Epoch. Only then can a ClientView carry
	// its whitelist over (see "Renewing a snapshot").
	Covered bool
	Since   uint64
	Recent  []uint64
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
