package ttl

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestActiveListAdmitAndGet(t *testing.T) {
	c := newFakeClock()
	al := NewActiveList(4, 0, c.Now)
	if !al.Admit("q1", 10*time.Second, []string{"t/a", "t/b"}, ObjectList) {
		t.Fatal("admission to empty list failed")
	}
	e, ok := al.Get("q1")
	if !ok {
		t.Fatal("entry missing")
	}
	if e.TTL != 10*time.Second || len(e.ResultKeys) != 2 || e.Representation != ObjectList {
		t.Errorf("entry = %+v", e)
	}
	if al.Len() != 1 {
		t.Errorf("Len = %d", al.Len())
	}
	if _, ok := al.Get("missing"); ok {
		t.Error("missing query reported present")
	}
}

func TestActiveListReadRefreshes(t *testing.T) {
	c := newFakeClock()
	al := NewActiveList(4, 0, c.Now)
	al.Admit("q1", 5*time.Second, []string{"a"}, ObjectList)
	c.Advance(3 * time.Second)
	al.Admit("q1", 8*time.Second, []string{"a", "b"}, IDList)
	e, _ := al.Get("q1")
	if e.Reads != 2 {
		t.Errorf("Reads = %d", e.Reads)
	}
	if !e.LastReadAt.Equal(c.Now()) {
		t.Error("LastReadAt not refreshed")
	}
	if e.Representation != IDList || e.TTL != 8*time.Second {
		t.Errorf("entry not updated: %+v", e)
	}
}

func TestInvalidatedReturnsActualTTL(t *testing.T) {
	c := newFakeClock()
	al := NewActiveList(4, 0, c.Now)
	al.Admit("q1", 30*time.Second, nil, ObjectList)
	c.Advance(7 * time.Second)
	var observed []time.Duration
	observe := func(d time.Duration) { observed = append(observed, d) }
	al.Invalidated("q1", observe)
	al.Invalidated("missing", observe)
	if len(observed) != 1 || observed[0] != 7*time.Second {
		t.Errorf("observed actual TTLs = %v, want [7s] (invalidation − last read, active queries only)", observed)
	}
	e, _ := al.Get("q1")
	if e.Invalidations != 1 {
		t.Errorf("Invalidations = %d", e.Invalidations)
	}
}

func TestCapacityEvictsLowestValue(t *testing.T) {
	c := newFakeClock()
	al := NewActiveList(4, 2, c.Now)
	al.Admit("good", time.Second, nil, ObjectList)
	al.Admit("bad", time.Second, nil, ObjectList)
	// "good" earns many reads per invalidation; "bad" is churn-heavy.
	for i := 0; i < 10; i++ {
		al.Admit("good", time.Second, nil, ObjectList)
	}
	for i := 0; i < 10; i++ {
		al.Invalidated("bad", func(time.Duration) {})
	}
	// A third query must displace "bad" (score 1/10), not "good" (score 11).
	if !al.Admit("new", time.Second, nil, ObjectList) {
		t.Fatal("admission should evict the lowest-value query")
	}
	if _, ok := al.Get("bad"); ok {
		t.Error("churn-heavy query survived eviction")
	}
	if _, ok := al.Get("good"); !ok {
		t.Error("valuable query was evicted")
	}
	if al.Len() != 2 {
		t.Errorf("Len = %d", al.Len())
	}
}

// TestEvictionThresholdAndLapsedFirst pins the two victim rules: a newcomer
// displaces a live resident only if the resident scores lower than a
// newcomer does, and an entry whose issued TTL has lapsed goes first.
func TestEvictionThresholdAndLapsedFirst(t *testing.T) {
	c := newFakeClock()
	al := NewActiveList(4, 1, c.Now)
	var evicted []string
	al.OnEvict = func(e Entry) { evicted = append(evicted, e.QueryKey) }

	for i := 0; i < 6; i++ {
		al.Admit("resident", time.Minute, nil, ObjectList)
	}
	if al.Admit("newcomer", time.Minute, nil, ObjectList) {
		t.Fatal("a 1-read newcomer displaced a live resident with 6 reads and no invalidation")
	}
	// Equal score is not lower: a read-once resident holds its slot too.
	al = NewActiveList(4, 1, c.Now)
	al.Admit("once", time.Minute, nil, ObjectList)
	if al.Admit("newcomer", time.Minute, nil, ObjectList) {
		t.Fatal("a newcomer displaced a live resident of equal score")
	}
	// ... until its TTL lapses: nothing caches it any more.
	c.Advance(time.Minute)
	if !al.Admit("newcomer", time.Minute, nil, ObjectList) {
		t.Fatal("a lapsed resident was not reclaimed")
	}

	// Lapsed goes before lower-scoring: "hot" is lapsed but valuable,
	// "churny" is live and scores 1/3.
	al = NewActiveList(4, 2, c.Now)
	al.OnEvict = func(e Entry) { evicted = append(evicted, e.QueryKey) }
	for i := 0; i < 5; i++ {
		al.Admit("hot", time.Second, nil, ObjectList)
	}
	c.Advance(2 * time.Second)
	al.Admit("churny", time.Minute, nil, ObjectList)
	for i := 0; i < 3; i++ {
		al.Invalidated("churny", func(time.Duration) {})
	}
	if !al.Admit("third", time.Minute, nil, ObjectList) {
		t.Fatal("admission with a lapsed resident failed")
	}
	if !al.Admit("fourth", time.Minute, nil, ObjectList) {
		t.Fatal("admission with a lower-scoring resident failed")
	}
	if got := fmt.Sprint(evicted); got != "[hot churny]" {
		t.Errorf("evicted %s, want [hot churny]", got)
	}
	if al.Len() != 2 {
		t.Errorf("Len = %d, want 2", al.Len())
	}
}

// TestRegistryPinAndActivation covers the lifecycle hooks: a pinned entry
// is not evictable, unpinning makes it reclaimable, activation runs once
// per admission and its failure leaves no entry.
func TestRegistryPinAndActivation(t *testing.T) {
	c := newFakeClock()
	al := NewActiveList(4, 1, c.Now)
	activations := 0
	activate := func() error { activations++; return nil }

	if ok, err := al.Pin("sub", activate); !ok || err != nil {
		t.Fatalf("Pin = %v, %v", ok, err)
	}
	al.Pin("sub", activate) // second subscriber: same activation
	if activations != 1 {
		t.Errorf("activations = %d, want 1", activations)
	}
	al.Invalidated("sub", func(time.Duration) { t.Error("a subscription-only entry has no cached read to time") })
	// A pinned entry has no issued TTL, yet it is not a victim.
	if ok, _ := al.Register(Entry{QueryKey: "q", TTL: time.Minute}, activate); ok {
		t.Fatal("a pinned entry was evicted")
	}
	al.Unpin("sub")
	if ok, _ := al.Register(Entry{QueryKey: "q", TTL: time.Minute}, activate); ok {
		t.Fatal("entry evicted while one subscriber is left")
	}
	al.Unpin("sub")
	if ok, _ := al.Register(Entry{QueryKey: "q", TTL: time.Minute, Path: "/q"}, activate); !ok {
		t.Fatal("unpinned entry not reclaimed")
	}
	if activations != 2 {
		t.Errorf("activations = %d, want 2", activations)
	}
	// A re-read without a path keeps the one on record.
	al.Register(Entry{QueryKey: "q", TTL: time.Minute}, activate)
	if path := al.Invalidated("q", func(time.Duration) {}); path != "/q" || activations != 2 {
		t.Errorf("path = %q, activations = %d", path, activations)
	}

	c.Advance(time.Hour)
	failed := errors.New("activation failed")
	if ok, err := al.Register(Entry{QueryKey: "r", TTL: time.Minute}, func() error { return failed }); ok || err != failed {
		t.Fatalf("Register = %v, %v", ok, err)
	}
	if _, ok := al.Get("r"); ok || al.Len() != 0 {
		t.Errorf("failed activation left state behind: Len = %d", al.Len())
	}
}

func TestGetReturnsCopy(t *testing.T) {
	c := newFakeClock()
	al := NewActiveList(2, 0, c.Now)
	al.Admit("q1", time.Second, []string{"a"}, ObjectList)
	e, _ := al.Get("q1")
	e.ResultKeys[0] = "mutated"
	fresh, _ := al.Get("q1")
	if fresh.ResultKeys[0] != "a" {
		t.Error("Get leaked internal slice")
	}
}

func TestActiveListConcurrency(t *testing.T) {
	c := newFakeClock()
	al := NewActiveList(8, 50, c.Now)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("q%d", (id*200+i)%100)
				al.Admit(key, time.Second, nil, ObjectList)
				al.Invalidated(key, func(time.Duration) {})
				al.Get(key)
			}
		}(w)
	}
	wg.Wait()
	if al.Len() > 50 {
		t.Errorf("capacity exceeded: %d", al.Len())
	}
}

func TestChooseRepresentation(t *testing.T) {
	// Hot result set, mostly in-place changes: id-list avoids most
	// invalidations and records are cached -> IDList wins.
	rep := ChooseRepresentation(RepresentationCost{
		ResultSize:     10,
		ChangeRate:     5.0,
		MembershipRate: 0.2,
		RecordHitRate:  0.95,
	})
	if rep != IDList {
		t.Errorf("churny content should favour id-list, got %v", rep)
	}
	// Cold result, poor record hit rate: object-list's single round-trip wins.
	rep = ChooseRepresentation(RepresentationCost{
		ResultSize:     20,
		ChangeRate:     0.01,
		MembershipRate: 0.005,
		RecordHitRate:  0.1,
	})
	if rep != ObjectList {
		t.Errorf("cold content should favour object-list, got %v", rep)
	}
	// Degenerate inputs must not panic and produce a valid choice.
	rep = ChooseRepresentation(RepresentationCost{RecordHitRate: 5})
	if rep != ObjectList && rep != IDList {
		t.Errorf("invalid rep %v", rep)
	}
	if ObjectList.String() != "object-list" || IDList.String() != "id-list" {
		t.Error("String() labels wrong")
	}
}
