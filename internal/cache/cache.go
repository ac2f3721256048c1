// Package cache implements the web caches Quaestor builds on (Section 2
// "Web Caching").
//
// Two kinds of caches exist in the HTTP model:
//
//   - expiration-based caches (browser caches, forward/ISP proxies): they
//     serve an entry until its TTL expires and can only be updated through
//     client-triggered revalidations — the server cannot reach them;
//   - invalidation-based caches (CDNs, reverse proxies): additionally
//     support asynchronous server-side purges.
//
// Cache is the core object cache with TTL expiry, LRU capacity eviction,
// ETag-based revalidation bookkeeping and hit/miss statistics. Purge is
// only honoured when the cache is constructed as invalidation-based,
// matching the reachability constraints of real deployments. The httpcache
// file layers real HTTP semantics (Cache-Control, If-None-Match/304, PURGE)
// on top for the REST stack.
package cache

import (
	"container/list"
	"sync"
	"time"
)

// Kind distinguishes the two web-cache classes.
type Kind int

const (
	// ExpirationBased models browser and ISP caches: no server purge.
	ExpirationBased Kind = iota
	// InvalidationBased models CDNs and reverse proxies: purgeable.
	InvalidationBased
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == InvalidationBased {
		return "invalidation-based"
	}
	return "expiration-based"
}

// Entry is one cached object.
type Entry struct {
	Key       string
	Value     any
	ETag      string
	StoredAt  time.Time
	ExpiresAt time.Time
	// InitialAge is how stale the response already was when it was stored:
	// the staleness bound the replica that served it reported, zero from a
	// primary (RFC 9111's initial age).
	InitialAge time.Duration
}

// Fresh reports whether the entry is still within its TTL at time now.
func (e *Entry) Fresh(now time.Time) bool { return now.Before(e.ExpiresAt) }

// Age is how stale the entry is at time now: its initial age plus the time
// it has been stored.
func (e *Entry) Age(now time.Time) time.Duration { return e.InitialAge + now.Sub(e.StoredAt) }

// Stats counts cache activity.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Expired       uint64 // misses caused by TTL expiry
	Purges        uint64
	Revalidations uint64 // entries refreshed in place
	Evictions     uint64 // LRU capacity evictions
	Size          int
}

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a TTL + LRU object cache. Safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	kind     Kind
	capacity int // max entries; 0 = unlimited
	clock    func() time.Time
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	stats    Stats
}

// New creates a cache of the given kind. capacity 0 means unlimited; clock
// nil means time.Now.
func New(kind Kind, capacity int, clock func() time.Time) *Cache {
	if clock == nil {
		clock = time.Now
	}
	return &Cache{
		kind:     kind,
		capacity: capacity,
		clock:    clock,
		entries:  map[string]*list.Element{},
		lru:      list.New(),
	}
}

// Kind returns the cache class.
func (c *Cache) Kind() Kind { return c.kind }

// Get returns the entry when present and fresh. Expired entries are
// evicted lazily and count as Expired misses; the evicted entry is still
// returned (with false), so the refetch that follows can revalidate it
// with If-None-Match at no second lookup.
func (c *Cache) Get(key string) (*Entry, bool) {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	e := el.Value.(*Entry)
	if !e.Fresh(now) {
		c.removeLocked(el)
		c.stats.Misses++
		c.stats.Expired++
		return e, false
	}
	c.lru.MoveToFront(el)
	c.stats.Hits++
	cp := *e
	return &cp, true
}

// GetStale returns the entry even when expired (used for revalidation with
// If-None-Match). The boolean reports presence; the caller must check
// Fresh.
func (c *Cache) GetStale(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e := *el.Value.(*Entry)
	return &e, true
}

// Put stores (or replaces) an entry with the given TTL. A non-positive TTL
// makes the object uncacheable and removes any stored copy.
func (c *Cache) Put(key string, value any, etag string, ttl time.Duration) {
	c.PutAged(key, value, etag, ttl, 0)
}

// PutAged is Put for a response that was already initialAge stale when it
// arrived.
func (c *Cache) PutAged(key string, value any, etag string, ttl, initialAge time.Duration) {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if ttl <= 0 {
		if el, ok := c.entries[key]; ok {
			c.removeLocked(el)
		}
		return
	}
	e := &Entry{Key: key, Value: value, ETag: etag, StoredAt: now, ExpiresAt: now.Add(ttl), InitialAge: initialAge}
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		c.stats.Revalidations++
		return
	}
	el := c.lru.PushFront(e)
	c.entries[key] = el
	if c.capacity > 0 && c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		if oldest != nil {
			c.removeLocked(oldest)
			c.stats.Evictions++
		}
	}
}

// Extend refreshes an existing entry's TTL without replacing its value —
// the effect of a 304 Not Modified revalidation.
func (c *Cache) Extend(key string, ttl time.Duration) bool {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	e := el.Value.(*Entry)
	e.ExpiresAt = now.Add(ttl)
	c.lru.MoveToFront(el)
	c.stats.Revalidations++
	return true
}

// Purge removes an entry by server-side invalidation. Only
// invalidation-based caches honour purges; expiration-based caches return
// false, mirroring their unreachability from the origin.
func (c *Cache) Purge(key string) bool {
	if c.kind != InvalidationBased {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	c.removeLocked(el)
	c.stats.Purges++
	return true
}

// Invalidate removes an entry regardless of kind. Clients use this on their
// *own* browser cache (after their own writes, whose next read goes to the
// origin); it is not a server-side purge.
func (c *Cache) Invalidate(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	c.removeLocked(el)
	return true
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*Entry)
	delete(c.entries, e.Key)
	c.lru.Remove(el)
}

// Keys returns all stored entry keys (including expired ones not yet
// swept). Clients use this with the EBF to drop flagged entries on filter
// refresh.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for k := range c.entries {
		out = append(out, k)
	}
	return out
}

// Len returns the number of stored entries (including expired, pre-sweep).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Clear drops all entries.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*list.Element{}
	c.lru.Init()
}

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = c.lru.Len()
	return s
}
