package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(0, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestPutGetExpiry(t *testing.T) {
	clk := newFakeClock()
	c := New(ExpirationBased, 0, clk.Now)
	c.Put("k", "v", `"e1"`, 10*time.Second)
	e, ok := c.Get("k")
	if !ok || e.Value != "v" || e.ETag != `"e1"` {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	clk.Advance(11 * time.Second)
	// The expired entry is evicted and handed back for revalidation.
	if e, ok := c.Get("k"); ok || e == nil || e.ETag != `"e1"` {
		t.Errorf("Get of an expired entry = %+v, %v; want the evicted entry and false", e, ok)
	}
	if e, ok := c.GetStale("k"); ok || e != nil {
		t.Error("expired entry still stored after Get")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Expired != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	clk := newFakeClock()
	c := New(ExpirationBased, 0, clk.Now)
	c.Put("k", "v", "", time.Minute)
	e, _ := c.Get("k")
	e.Value = "mutated"
	e2, _ := c.Get("k")
	if e2.Value != "v" {
		t.Error("Get leaked a mutable entry")
	}
}

func TestNonPositiveTTLRemoves(t *testing.T) {
	clk := newFakeClock()
	c := New(ExpirationBased, 0, clk.Now)
	c.Put("k", "v", "", time.Minute)
	c.Put("k", "v2", "", 0) // uncacheable: drop
	if _, ok := c.Get("k"); ok {
		t.Error("zero TTL should remove the entry")
	}
}

func TestGetStaleAndExtend(t *testing.T) {
	clk := newFakeClock()
	c := New(ExpirationBased, 0, clk.Now)
	c.Put("k", "v", `"e"`, time.Second)
	clk.Advance(2 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry should be expired")
	}
	// Re-put since Get evicted it; test stale retrieval before expiry sweep.
	c.Put("k", "v", `"e"`, time.Second)
	clk.Advance(2 * time.Second)
	stale, ok := c.GetStale("k")
	if !ok || stale.Fresh(clk.Now()) {
		t.Fatal("GetStale should return the expired entry")
	}
	// A 304 revalidation extends the entry in place.
	if !c.Extend("k", time.Minute) {
		t.Fatal("Extend failed")
	}
	if _, ok := c.Get("k"); !ok {
		t.Error("extended entry should be fresh again")
	}
	if c.Extend("missing", time.Minute) {
		t.Error("Extend on missing key should fail")
	}
}

func TestPurgeOnlyInvalidationBased(t *testing.T) {
	clk := newFakeClock()
	exp := New(ExpirationBased, 0, clk.Now)
	inv := New(InvalidationBased, 0, clk.Now)
	exp.Put("k", "v", "", time.Minute)
	inv.Put("k", "v", "", time.Minute)
	if exp.Purge("k") {
		t.Error("expiration-based caches are unreachable for purges")
	}
	if _, ok := exp.Get("k"); !ok {
		t.Error("failed purge must not remove the entry")
	}
	if !inv.Purge("k") {
		t.Error("invalidation-based cache must honour purges")
	}
	if _, ok := inv.Get("k"); ok {
		t.Error("purged entry still served")
	}
	if inv.Purge("missing") {
		t.Error("purging a missing key should report false")
	}
	if inv.Stats().Purges != 1 {
		t.Errorf("purge count = %d", inv.Stats().Purges)
	}
}

func TestInvalidateWorksOnAnyKind(t *testing.T) {
	clk := newFakeClock()
	c := New(ExpirationBased, 0, clk.Now)
	c.Put("k", "v", "", time.Minute)
	if !c.Invalidate("k") {
		t.Error("client-side invalidate should work on own cache")
	}
	if c.Invalidate("k") {
		t.Error("double invalidate should report false")
	}
}

func TestLRUEviction(t *testing.T) {
	clk := newFakeClock()
	c := New(ExpirationBased, 3, clk.Now)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, "", time.Minute)
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put("k3", 3, "", time.Minute)
	if _, ok := c.Get("k1"); ok {
		t.Error("LRU victim k1 survived")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted wrongly", k)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestReplaceCountsRevalidation(t *testing.T) {
	clk := newFakeClock()
	c := New(ExpirationBased, 0, clk.Now)
	c.Put("k", "v1", "", time.Minute)
	c.Put("k", "v2", "", time.Minute)
	if c.Stats().Revalidations != 1 {
		t.Errorf("revalidations = %d", c.Stats().Revalidations)
	}
	e, _ := c.Get("k")
	if e.Value != "v2" {
		t.Error("replacement lost")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestKeysAndClear(t *testing.T) {
	clk := newFakeClock()
	c := New(ExpirationBased, 0, clk.Now)
	c.Put("a", 1, "", time.Minute)
	c.Put("b", 2, "", time.Minute)
	if got := len(c.Keys()); got != 2 {
		t.Errorf("Keys = %d", got)
	}
	c.Clear()
	if c.Len() != 0 || len(c.Keys()) != 0 {
		t.Error("Clear incomplete")
	}
}

func TestHitRate(t *testing.T) {
	clk := newFakeClock()
	c := New(ExpirationBased, 0, clk.Now)
	c.Put("k", 1, "", time.Minute)
	c.Get("k")
	c.Get("missing")
	if got := c.Stats().HitRate(); got != 0.5 {
		t.Errorf("hit rate = %f", got)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
}

func TestKindString(t *testing.T) {
	if ExpirationBased.String() != "expiration-based" || InvalidationBased.String() != "invalidation-based" {
		t.Error("Kind.String broken")
	}
}

func TestCacheConcurrency(t *testing.T) {
	c := New(InvalidationBased, 128, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (id*31+i)%200)
				c.Put(k, i, "", time.Minute)
				c.Get(k)
				if i%10 == 0 {
					c.Purge(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 128 {
		t.Errorf("capacity violated: %d", c.Len())
	}
}
