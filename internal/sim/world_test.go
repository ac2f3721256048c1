package sim

import (
	"container/heap"
	"testing"
	"time"

	"quaestor/internal/server"
	"quaestor/internal/ttl"
	"quaestor/internal/workload"
)

func newTestWorld(t *testing.T, mutate func(*Config)) (*Sim, *world) {
	t.Helper()
	cfg := &Config{
		Dataset:        &workload.DatasetConfig{Tables: 1, DocsPerTable: 100, QueriesPerTable: 10, MeanResultSize: 10, Seed: 2},
		Clients:        1,
		ConnsPerClient: 1,
		Duration:       time.Second,
		Mode:           server.ModeFull,
		Seed:           5,
	}
	if mutate != nil {
		mutate(cfg)
	}
	s := New(cfg)
	return s, s.world
}

func TestWorldGroundTruthConsistency(t *testing.T) {
	_, w := newTestWorld(t, nil)
	table := w.ds.Tables[0]
	// Every registered query's member set must equal a direct evaluation
	// over the ground-truth documents.
	for _, sq := range w.queries {
		for id, doc := range w.docs[table] {
			matches := doc.primaryTag == sq.tag || doc.secondTag == sq.tag
			_, member := sq.members[id]
			if matches != member {
				t.Fatalf("query %s: doc %s membership=%v, tags (%s,%s) vs %s",
					sq.key, id, member, doc.primaryTag, doc.secondTag, sq.tag)
			}
		}
	}
}

func TestApplyUpdateMembershipTransitions(t *testing.T) {
	s, w := newTestWorld(t, nil)
	table := w.ds.Tables[0]
	// Pick a document and flip its primary tag to a different value.
	var id string
	var doc *simDoc
	for did, d := range w.docs[table] {
		if d.primaryTag != d.secondTag {
			id, doc = did, d
			break
		}
	}
	oldTag := doc.primaryTag
	newTag := "tag00000"
	if newTag == oldTag {
		newTag = "tag00001"
	}
	oldQ := w.byTag[table][oldTag]
	newQ := w.byTag[table][newTag]
	oldVersions := map[string]uint64{}
	for _, sq := range append(append([]*simQuery{}, oldQ...), newQ...) {
		oldVersions[sq.key] = sq.membershipVersion
	}
	w.applyUpdate(table, id, newTag)
	_ = s

	for _, sq := range oldQ {
		if _, still := sq.members[id]; still && sq.tag == oldTag && doc.secondTag != oldTag {
			t.Errorf("doc %s still member of old-tag query %s", id, sq.key)
		}
		if sq.tag == oldTag && doc.secondTag != oldTag && sq.membershipVersion == oldVersions[sq.key] {
			t.Errorf("old-tag query %s membershipVersion not bumped", sq.key)
		}
	}
	for _, sq := range newQ {
		if _, member := sq.members[id]; !member {
			t.Errorf("doc %s not member of new-tag query %s", id, sq.key)
		}
	}
	if doc.version != 2 {
		t.Errorf("doc version = %d", doc.version)
	}
}

func TestApplyUpdateInPlaceOnlyBumpsContent(t *testing.T) {
	_, w := newTestWorld(t, nil)
	table := w.ds.Tables[0]
	var id string
	var doc *simDoc
	for did, d := range w.docs[table] {
		id, doc = did, d
		break
	}
	sqs := w.byTag[table][doc.primaryTag]
	before := map[string][2]uint64{}
	for _, sq := range sqs {
		before[sq.key] = [2]uint64{sq.membershipVersion, sq.contentVersion}
	}
	// Same tag: an in-place update.
	w.applyUpdate(table, id, doc.primaryTag)
	for _, sq := range sqs {
		if _, member := sq.members[id]; !member {
			continue
		}
		b := before[sq.key]
		if sq.membershipVersion != b[0] {
			t.Errorf("in-place update bumped membershipVersion of %s", sq.key)
		}
		if sq.contentVersion == b[1] {
			t.Errorf("in-place update did not bump contentVersion of %s", sq.key)
		}
	}
}

func TestInvalidationWaveFlagsEBFAfterDelay(t *testing.T) {
	s, w := newTestWorld(t, func(c *Config) { c.InvalidationLatency = 100 * time.Millisecond })
	table := w.ds.Tables[0]
	var id string
	for did := range w.docs[table] {
		id = did
		break
	}
	// A prior "read" gives the record a live TTL so the write is
	// purge-relevant.
	rk := recordKey(table, id)
	w.coh.ReportRead(rk, time.Minute)
	w.applyUpdate(table, id, "tag00002")
	if w.coh.Snapshot().Contains(rk) {
		t.Fatal("EBF flagged before the invalidation latency elapsed")
	}
	// Drain the event queue up to +200ms of virtual time.
	s.stopAt = s.now.Add(200 * time.Millisecond)
	for s.queue.Len() > 0 {
		if s.queue[0].at.After(s.stopAt) {
			break
		}
		ev := heap.Pop(&s.queue).(*event)
		s.now = ev.at
		ev.fn()
	}
	if !w.coh.Snapshot().Contains(rk) {
		t.Error("EBF not flagged after the invalidation latency")
	}
}

// TestChooseRepPolicies checks that the origin model materializes results
// under the configured policy: the server's, with no copy of its own.
func TestChooseRepPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy server.RepresentationPolicy
		want   ttl.Representation
	}{
		{server.RepAlwaysIDs, ttl.IDList},
		{server.RepAlwaysObjects, ttl.ObjectList},
	} {
		_, w := newTestWorld(t, func(c *Config) { c.Representation = tc.policy })
		for _, sq := range w.queries {
			w.serveQueryAtOrigin(sq)
			if sq.rep != tc.want {
				t.Fatalf("policy %v served %v, want %v", tc.policy, sq.rep, tc.want)
			}
			break
		}
	}
}

func TestQueueDelaySaturates(t *testing.T) {
	now := time.Unix(0, 0)
	var busy time.Time
	// Capacity 10/s => service time 100ms. Three back-to-back arrivals
	// queue behind each other.
	d1 := queueDelay(now, &busy, 10)
	d2 := queueDelay(now, &busy, 10)
	d3 := queueDelay(now, &busy, 10)
	if d1 != 100*time.Millisecond || d2 != 200*time.Millisecond || d3 != 300*time.Millisecond {
		t.Errorf("delays = %v %v %v", d1, d2, d3)
	}
	// After the backlog clears, delay resets to one service time.
	later := now.Add(time.Minute)
	if d := queueDelay(later, &busy, 10); d != 100*time.Millisecond {
		t.Errorf("post-idle delay = %v", d)
	}
}
