package ttl

import (
	"hash/fnv"
	"sync"
	"time"
)

// Representation selects how a cached query result is materialized
// (Section 4.2 "Representing Query Results").
type Representation int

const (
	// ObjectList caches the full documents with the query: one round-trip,
	// but the result invalidates on add, remove AND change events.
	ObjectList Representation = iota
	// IDList caches only the record URLs: more round-trips to assemble, but
	// only membership changes (add/remove) invalidate the result, and the
	// per-record entries get cache hits "by side effect".
	IDList
)

// String implements fmt.Stringer.
func (r Representation) String() string {
	if r == IDList {
		return "id-list"
	}
	return "object-list"
}

// Entry is the active list's record of one cached query ("the current TTL
// estimate for a query is kept in a shared partitioned data structure
// called the active list, which is accessed by all QUAESTOR nodes"). At the
// origin it is the only record: a query is registered in InvaliDB exactly
// while its entry is resident.
type Entry struct {
	QueryKey string
	// Path is the resource path the query was last served under — what an
	// invalidation purges from invalidation-based caches ("" if unknown).
	Path string
	// LastReadAt is the timestamp of the most recent (re)read; the actual
	// TTL at invalidation time is Invalidation − LastReadAt.
	LastReadAt time.Time
	// TTL is the expiration issued at the last read.
	TTL time.Duration
	// ResultKeys are the record keys of the current result set.
	ResultKeys []string
	// Representation chosen at last read.
	Representation Representation
	// Reads and Invalidations count activity for capacity scoring.
	Reads         uint64
	Invalidations uint64
	// Pins counts the live subscriptions holding the entry; a pinned entry
	// is never evicted.
	Pins int
}

// lapsed reports whether the entry's issued TTL has run out: no cache
// holds the result any more, so dropping the entry costs nothing.
func (e *Entry) lapsed(now time.Time) bool { return !e.LastReadAt.Add(e.TTL).After(now) }

// ActiveList is the shared, hash-partitioned registry of currently cached
// queries, combined with the capacity management model (Section 4.1: "only
// queries that are sufficiently cachable are admitted and prioritized based
// on the costs of maintaining them").
//
// Lifecycle of an entry: Register or Pin admits it (running the caller's
// activation), re-reads refresh it, and it ends when a later admission at
// capacity picks it as the victim — OnEvict then tears down whatever the
// activation set up. Admission of a new key, its activation and the
// victim's OnEvict all run under one admission lock, so for any one key
// teardown and re-activation never overlap or reorder. There is no timer:
// an entry whose TTL lapsed stays until an admission needs its slot.
type ActiveList struct {
	// OnEvict, if set before first use, is called with each evicted entry.
	OnEvict func(Entry)

	parts    []*alPart
	capacity int // maximum admitted queries; 0 = unlimited
	clock    func() time.Time

	// admitMu serializes the admission of new keys so the capacity bound is
	// strict even under concurrent admissions; total mirrors the summed
	// partition sizes. Refreshing a resident entry never takes it.
	admitMu sync.Mutex
	total   int
}

type alPart struct {
	mu      sync.Mutex
	entries map[string]*Entry
}

// NewActiveList creates a list with the given partition count and admission
// capacity (0 = unlimited).
func NewActiveList(partitions, capacity int, clock func() time.Time) *ActiveList {
	if partitions < 1 {
		partitions = 1
	}
	if clock == nil {
		clock = time.Now
	}
	al := &ActiveList{parts: make([]*alPart, partitions), capacity: capacity, clock: clock}
	for i := range al.parts {
		al.parts[i] = &alPart{entries: map[string]*Entry{}}
	}
	return al
}

func (al *ActiveList) part(key string) *alPart {
	h := fnv.New32a()
	h.Write([]byte(key))
	return al.parts[h.Sum32()%uint32(len(al.parts))]
}

// Len returns the total number of active queries.
func (al *ActiveList) Len() int {
	n := 0
	for _, p := range al.parts {
		p.mu.Lock()
		n += len(p.entries)
		p.mu.Unlock()
	}
	return n
}

// Admit is Register for callers with nothing to activate.
func (al *ActiveList) Admit(queryKey string, ttl time.Duration, resultKeys []string, rep Representation) bool {
	admitted, _ := al.Register(Entry{QueryKey: queryKey, TTL: ttl, ResultKeys: resultKeys, Representation: rep}, nil)
	return admitted
}

// Register records one read of a query: read carries the key, the issued
// TTL, the result keys, the representation and the path served. A resident
// entry is refreshed. A new key is admitted if the list has room or a
// resident can be evicted for it (see evict); activate, if not nil, then
// runs before the entry becomes visible, and its error aborts the
// admission. It reports whether the query is admitted to caching.
//
// The value metric is reads per invalidation — a direct proxy for the
// cache hit benefit versus the maintenance cost of matching the query in
// InvaliDB and purging caches.
func (al *ActiveList) Register(read Entry, activate func() error) (bool, error) {
	return al.admit(&read, false, activate)
}

// Pin is Register for a subscription: it admits queryKey if needed (with
// no issued TTL, so the entry counts as lapsed once unpinned) and holds it
// against eviction until the matching Unpin.
func (al *ActiveList) Pin(queryKey string, activate func() error) (bool, error) {
	return al.admit(&Entry{QueryKey: queryKey}, true, activate)
}

// Unpin releases one Pin.
func (al *ActiveList) Unpin(queryKey string) {
	p := al.part(queryKey)
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[queryKey]; ok && e.Pins > 0 {
		e.Pins--
	}
}

// touch applies one read (or, with pin, one subscription) to the entry.
func (e *Entry) touch(in *Entry, pin bool) {
	if pin {
		e.Pins++
		return
	}
	e.LastReadAt = in.LastReadAt
	e.TTL = in.TTL
	e.ResultKeys = in.ResultKeys
	e.Representation = in.Representation
	if in.Path != "" {
		e.Path = in.Path
	}
	e.Reads++
}

// touch applies in to the partition's resident entry of the same key and
// reports whether there is one.
func (p *alPart) touch(in *Entry, pin bool) bool {
	p.mu.Lock()
	e, resident := p.entries[in.QueryKey]
	if resident {
		e.touch(in, pin)
	}
	p.mu.Unlock()
	return resident
}

// admit is the one admission path behind Register and Pin.
func (al *ActiveList) admit(in *Entry, pin bool, activate func() error) (bool, error) {
	in.LastReadAt = al.clock()
	p := al.part(in.QueryKey)
	if p.touch(in, pin) {
		return true, nil
	}
	al.admitMu.Lock()
	defer al.admitMu.Unlock()
	// Re-check residency: a concurrent admission may have inserted the key.
	if p.touch(in, pin) {
		return true, nil
	}
	if al.capacity > 0 && al.total >= al.capacity {
		victim, ok := al.evict(in.LastReadAt)
		if !ok {
			return false, nil
		}
		al.total--
		if al.OnEvict != nil {
			al.OnEvict(victim)
		}
	}
	if activate != nil {
		if err := activate(); err != nil {
			return false, err
		}
	}
	fresh := &Entry{QueryKey: in.QueryKey}
	fresh.touch(in, pin)
	p.mu.Lock()
	p.entries[in.QueryKey] = fresh
	p.mu.Unlock()
	al.total++
	return true, nil
}

// newcomerScore is what a query scores on admission: one read, never
// invalidated. A resident must score lower to be displaced.
const newcomerScore = 1.0

// score is the entry's value to the cache: reads per invalidation (a
// never-invalidated query scores as its raw read count), or below every
// live entry once the issued TTL has lapsed.
func (e *Entry) score(now time.Time) float64 {
	switch {
	case e.lapsed(now):
		return -1
	case e.Invalidations == 0:
		return float64(e.Reads)
	}
	return float64(e.Reads) / float64(e.Invalidations)
}

// evict removes and returns the lowest-scoring unpinned entry, provided it
// scores below a newcomer. Lapsed entries go first: they are cached
// nowhere, and without that rule a list full of read-once, never-
// invalidated queries would reject every newcomer forever. Called with
// admitMu held, so no entry appears or disappears during the scan.
func (al *ActiveList) evict(now time.Time) (Entry, bool) {
	var victimPart *alPart
	var victimKey string
	victimScore := newcomerScore
	for _, p := range al.parts {
		p.mu.Lock()
		for k, e := range p.entries {
			if s := e.score(now); e.Pins == 0 && s < victimScore {
				victimPart, victimKey, victimScore = p, k, s
			}
		}
		p.mu.Unlock()
	}
	if victimPart == nil {
		return Entry{}, false
	}
	victimPart.mu.Lock()
	defer victimPart.mu.Unlock()
	// Re-check under the lock: the victim may have been read or pinned
	// since the scan looked at it.
	e := victimPart.entries[victimKey]
	if e.Pins > 0 || e.score(now) >= newcomerScore {
		return Entry{}, false
	}
	delete(victimPart.entries, victimKey)
	return *e, true
}

// Get returns a copy of an entry, and whether the query is active.
func (al *ActiveList) Get(queryKey string) (Entry, bool) {
	p := al.part(queryKey)
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[queryKey]
	if !ok {
		return Entry{}, false
	}
	cp := *e
	cp.ResultKeys = append([]string(nil), e.ResultKeys...)
	return cp, true
}

// Invalidated records that a query's cached result just became stale and
// returns the path to purge ("" for a query that is not active). For an
// entry that has been read it calls observe with the entry's actual TTL
// (invalidation − last read), the sample for the EWMA update; observe runs
// under the entry's lock, so it cannot land after the entry's eviction.
func (al *ActiveList) Invalidated(queryKey string, observe func(actual time.Duration)) (path string) {
	p := al.part(queryKey)
	now := al.clock()
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[queryKey]
	if !ok {
		return ""
	}
	e.Invalidations++
	if e.Reads > 0 {
		observe(now.Sub(e.LastReadAt))
	}
	return e.Path
}

// RepresentationCost captures the inputs to the id-list vs object-list
// decision model.
type RepresentationCost struct {
	// ResultSize is the number of records in the result.
	ResultSize int
	// ChangeRate is the summed write rate (writes/s) of the result's
	// records — drives object-list invalidations.
	ChangeRate float64
	// MembershipRate is the estimated rate of add/remove membership changes
	// — invalidates both representations.
	MembershipRate float64
	// RecordHitRate is the probability a per-record fetch hits a cache when
	// assembling an id-list result.
	RecordHitRate float64
	// RoundTripCost and InvalidationCost weight one extra client round-trip
	// against one cache purge + recomputation, in arbitrary common units.
	RoundTripCost    float64
	InvalidationCost float64
}

// ChooseRepresentation implements the paper's cost-based decision between
// object-lists and id-lists: "a cost-based decision model in order to weigh
// fewer invalidations against fewer round-trips".
//
// Object-list pays invalidations at the full change rate (add/remove/change)
// but assembles in one round-trip. Id-list pays invalidations only for
// membership changes (add/remove) but needs one extra round-trip per
// missing record. Choose the representation with lower expected cost per
// cache lifetime.
func ChooseRepresentation(c RepresentationCost) Representation {
	if c.RoundTripCost <= 0 {
		c.RoundTripCost = 1
	}
	if c.InvalidationCost <= 0 {
		c.InvalidationCost = 1
	}
	if c.RecordHitRate < 0 {
		c.RecordHitRate = 0
	}
	if c.RecordHitRate > 1 {
		c.RecordHitRate = 1
	}
	objectCost := c.ChangeRate * c.InvalidationCost
	extraFetches := float64(c.ResultSize) * (1 - c.RecordHitRate)
	idCost := c.MembershipRate*c.InvalidationCost + extraFetches*c.RoundTripCost
	if idCost < objectCost {
		return IDList
	}
	return ObjectList
}
