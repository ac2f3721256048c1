package ebf

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"quaestor/internal/bloom"
	"quaestor/internal/kvstore"
)

// Distributed is the kvstore-backed EBF variant: multiple DBaaS servers
// share one filter by storing the counting Bloom filter, the flat mirror
// and the expiration bookkeeping in a central key-value store (Section 3.3
// "In the distributed case, all DBaaS servers communicate with the
// in-memory key-value store Redis, which holds the counting Bloom Filter
// and the tracked expirations").
//
// Layout in the KV store (prefix p):
//
//	p:cnt       hash  bit-index -> counter
//	p:flat      hash  word-index -> uint64 bit word
//	p:exp       hash  key -> unix-nanos of highest issued expiration
//	p:stale     hash  key -> unix-nanos the key leaves the filter
//	p:expq      zset  member=key score=leave-time (expiration queue)
//
// A short critical section per operation keeps multiple Distributed
// frontends coherent; the kvstore serializes individual structure ops, and
// a per-instance mutex orders the multi-step transitions the same way a
// Redis Lua script would.
type Distributed struct {
	mu     sync.Mutex
	kv     *kvstore.Store
	prefix string
	bits   uint32
	hashes uint32
	clock  func() time.Time
}

// NewDistributed creates (or attaches to) a shared EBF in kv under prefix.
func NewDistributed(kv *kvstore.Store, prefix string, opts *Options) *Distributed {
	o := opts.withDefaults()
	return &Distributed{
		kv:     kv,
		prefix: prefix,
		bits:   o.Bits,
		hashes: o.Hashes,
		clock:  o.Clock,
	}
}

func (d *Distributed) key(suffix string) string { return d.prefix + ":" + suffix }

// bitIndexes computes the k distinct bit positions for key in the shared
// geometry. Deduplication keeps increments and decrements balanced even
// when double hashing maps two of the k probes to the same position.
func (d *Distributed) bitIndexes(key string) []uint32 {
	raw := bloom.Indexes(key, d.bits, d.hashes)
	seen := make(map[uint32]struct{}, len(raw))
	out := raw[:0]
	for _, i := range raw {
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		out = append(out, i)
	}
	return out
}

// ReportRead records the highest issued expiration for key.
func (d *Distributed) ReportRead(key string, ttl time.Duration) {
	d.ReportReads(ttl, key)
}

// ReportReads records the highest issued expiration for every key of one
// response under one critical section and one expiry pass.
func (d *Distributed) ReportReads(ttl time.Duration, keys ...string) {
	if ttl <= 0 {
		return
	}
	now := d.clock()
	until := now.Add(ttl).UnixNano()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked(now)
	for _, key := range keys {
		cur, ok, _ := d.kv.HGet(d.key("exp"), key)
		if ok {
			if prev, err := strconv.ParseInt(cur, 10, 64); err == nil && prev >= until {
				continue
			}
		}
		_, _ = d.kv.HSet(d.key("exp"), key, strconv.FormatInt(until, 10))
	}
}

// ReportWrite flags key as stale if a cached copy may still live, returning
// whether invalidation-based caches must be purged.
func (d *Distributed) ReportWrite(key string) bool {
	now := d.clock()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked(now)
	raw, ok, _ := d.kv.HGet(d.key("exp"), key)
	if !ok {
		return false
	}
	until, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || until <= now.UnixNano() {
		return false
	}
	staleRaw, isStale, _ := d.kv.HGet(d.key("stale"), key)
	if isStale {
		if prev, err := strconv.ParseInt(staleRaw, 10, 64); err == nil && until > prev {
			_, _ = d.kv.HSet(d.key("stale"), key, strconv.FormatInt(until, 10))
			_ = d.kv.ZAdd(d.key("expq"), key, float64(until))
		}
		return true
	}
	for _, bit := range d.bitIndexes(key) {
		field := strconv.FormatUint(uint64(bit), 10)
		cur, _, _ := d.kv.HGet(d.key("cnt"), field)
		n, _ := strconv.Atoi(cur)
		n++
		_, _ = d.kv.HSet(d.key("cnt"), field, strconv.Itoa(n))
		if n == 1 {
			d.setFlatBit(bit, true)
		}
	}
	_, _ = d.kv.HSet(d.key("stale"), key, strconv.FormatInt(until, 10))
	_ = d.kv.ZAdd(d.key("expq"), key, float64(until))
	return true
}

func (d *Distributed) setFlatBit(bit uint32, on bool) {
	word := bit / 64
	field := strconv.FormatUint(uint64(word), 10)
	cur, _, _ := d.kv.HGet(d.key("flat"), field)
	w, _ := strconv.ParseUint(cur, 16, 64)
	if on {
		w |= 1 << (bit % 64)
	} else {
		w &^= 1 << (bit % 64)
	}
	_, _ = d.kv.HSet(d.key("flat"), field, strconv.FormatUint(w, 16))
}

func (d *Distributed) expireLocked(now time.Time) {
	members, err := d.kv.ZRangeByScore(d.key("expq"), 0, float64(now.UnixNano()))
	if err != nil || len(members) == 0 {
		return
	}
	for _, key := range members {
		staleRaw, isStale, _ := d.kv.HGet(d.key("stale"), key)
		if isStale {
			until, perr := strconv.ParseInt(staleRaw, 10, 64)
			if perr == nil && until > now.UnixNano() {
				// Extended since this queue entry; re-queue at new score.
				_ = d.kv.ZAdd(d.key("expq"), key, float64(until))
				continue
			}
			for _, bit := range d.bitIndexes(key) {
				field := strconv.FormatUint(uint64(bit), 10)
				cur, _, _ := d.kv.HGet(d.key("cnt"), field)
				n, _ := strconv.Atoi(cur)
				if n > 0 {
					n--
					_, _ = d.kv.HSet(d.key("cnt"), field, strconv.Itoa(n))
					if n == 0 {
						d.setFlatBit(bit, false)
					}
				}
			}
			_, _ = d.kv.HDel(d.key("stale"), key)
		}
		_, _ = d.kv.ZRem(d.key("expq"), key)
	}
}

// Contains reports whether key is currently flagged stale.
func (d *Distributed) Contains(key string) bool {
	now := d.clock()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked(now)
	for _, bit := range d.bitIndexes(key) {
		field := strconv.FormatUint(uint64(bit), 10)
		cur, ok, _ := d.kv.HGet(d.key("cnt"), field)
		if !ok {
			return false
		}
		if n, _ := strconv.Atoi(cur); n == 0 {
			return false
		}
	}
	return true
}

// Snapshot assembles the flat filter from the shared bit words.
func (d *Distributed) Snapshot() Snapshot {
	now := d.clock()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked(now)
	f := bloom.New(d.bits, d.hashes)
	words, _ := d.kv.HGetAll(d.key("flat"))
	for field, raw := range words {
		wordIdx, err := strconv.ParseUint(field, 10, 32)
		if err != nil {
			continue
		}
		w, err := strconv.ParseUint(raw, 16, 64)
		if err != nil {
			continue
		}
		for b := uint32(0); b < 64; b++ {
			if w&(1<<b) != 0 {
				f.SetBit(uint32(wordIdx)*64 + b)
			}
		}
	}
	entries, _ := d.kv.HLen(d.key("stale"))
	return Snapshot{Filter: f, GeneratedAt: now, Entries: entries}
}

// StaleCount returns the number of keys currently flagged.
func (d *Distributed) StaleCount() int {
	now := d.clock()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked(now)
	n, _ := d.kv.HLen(d.key("stale"))
	return n
}

// Stats reports the sizes of the shared structures; the activity counters
// stay zero (no frontend sees the other frontends' calls).
func (d *Distributed) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, _ := d.kv.HLen(d.key("stale"))
	tracked, _ := d.kv.HLen(d.key("exp"))
	return Stats{CurrentEntries: entries, TrackedKeys: tracked}
}

// String implements fmt.Stringer for diagnostics.
func (d *Distributed) String() string {
	return fmt.Sprintf("ebf.Distributed(prefix=%s,m=%d,k=%d)", d.prefix, d.bits, d.hashes)
}
