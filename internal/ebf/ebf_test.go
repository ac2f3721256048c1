package ebf

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"quaestor/internal/testutil"
)

// fakeClock is a controllable time source.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(0, 0)} }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func newTestEBF(c *fakeClock) *EBF {
	return New(&Options{Bits: 1 << 14, Hashes: 4, Clock: c.Now})
}

func TestWriteWithoutReadIsIgnored(t *testing.T) {
	c := newFakeClock()
	e := newTestEBF(c)
	if e.ReportWrite("q1") {
		t.Error("write with no cached copy should not require a purge")
	}
	if e.Contains("q1") {
		t.Error("ignored write entered the filter")
	}
	st := e.Stats()
	if st.IgnoredWrites != 1 || st.Invalidations != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInvalidationLifecycle(t *testing.T) {
	c := newFakeClock()
	e := newTestEBF(c)
	// Read with 10s TTL, write at t=2 -> stale until t=10.
	e.ReportRead("q1", 10*time.Second)
	c.Advance(2 * time.Second)
	if !e.ReportWrite("q1") {
		t.Fatal("write against live TTL must request a purge")
	}
	if !e.Contains("q1") {
		t.Fatal("invalidated key missing from filter")
	}
	c.Advance(7 * time.Second) // t=9: still within the issued TTL
	if !e.Contains("q1") {
		t.Error("key left the filter before its TTL expired")
	}
	c.Advance(2 * time.Second) // t=11: TTL passed
	if e.Contains("q1") {
		t.Error("key remained after the highest TTL expired")
	}
	if st := e.Stats(); st.Expirations != 1 {
		t.Errorf("expirations = %d", st.Expirations)
	}
}

func TestHighestTTLWins(t *testing.T) {
	c := newFakeClock()
	e := newTestEBF(c)
	e.ReportRead("q1", 5*time.Second)
	e.ReportRead("q1", 20*time.Second) // a later read issued a longer TTL
	e.ReportRead("q1", 3*time.Second)  // shorter TTLs must not shrink it
	c.Advance(time.Second)
	if !e.ReportWrite("q1") {
		t.Fatal("write should hit the live TTL")
	}
	c.Advance(10 * time.Second) // t=11 < 20: still flagged
	if !e.Contains("q1") {
		t.Error("key dropped before the HIGHEST issued TTL expired")
	}
	c.Advance(10 * time.Second) // t=21 > 20
	if e.Contains("q1") {
		t.Error("key kept past the highest TTL")
	}
}

func TestWriteAfterTTLExpiredIsIgnored(t *testing.T) {
	c := newFakeClock()
	e := newTestEBF(c)
	e.ReportRead("q1", time.Second)
	c.Advance(2 * time.Second)
	if e.ReportWrite("q1") {
		t.Error("no cache can still hold the entry; purge not needed")
	}
}

func TestRepeatedInvalidationExtends(t *testing.T) {
	c := newFakeClock()
	e := newTestEBF(c)
	e.ReportRead("q1", 5*time.Second)
	c.Advance(time.Second)
	e.ReportWrite("q1")
	// A fresh read issues a new TTL; a second write must keep the key until
	// the NEW expiration.
	e.ReportRead("q1", 10*time.Second) // expires at t=11
	if !e.ReportWrite("q1") {
		t.Fatal("second write should still purge")
	}
	c.Advance(5 * time.Second) // t=6 > first TTL end (5) but < 11
	if !e.Contains("q1") {
		t.Error("extension lost: key dropped at the superseded expiration")
	}
	c.Advance(6 * time.Second) // t=12
	if e.Contains("q1") {
		t.Error("key kept past extended expiration")
	}
}

// TestDeltaAtomicityProperty is Theorem 1 in executable form: for any
// sequence of reads (with TTLs) and writes, a snapshot generated at time t
// contains every key that was written before t while still cached (i.e.
// any cache could serve a stale copy at t).
func TestDeltaAtomicityProperty(t *testing.T) {
	c := newFakeClock()
	e := newTestEBF(c)
	type cachedUntil struct{ expires, written time.Time }
	state := map[string]*cachedUntil{}

	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
	}
	rng := func(i, m int) int { return (i*2654435761 + 12345) % m }
	for step := 0; step < 2000; step++ {
		k := keys[rng(step, len(keys))]
		switch rng(step, 3) {
		case 0: // read with TTL 1..20s
			ttl := time.Duration(1+rng(step, 20)) * time.Second
			e.ReportRead(k, ttl)
			exp := c.Now().Add(ttl)
			cu, ok := state[k]
			if !ok {
				state[k] = &cachedUntil{expires: exp}
			} else if exp.After(cu.expires) {
				cu.expires = exp
			}
		case 1: // write
			e.ReportWrite(k)
			if cu, ok := state[k]; ok && c.Now().Before(cu.expires) {
				cu.written = c.Now()
			}
		case 2:
			c.Advance(time.Duration(rng(step, 1500)) * time.Millisecond)
		}
		if step%97 == 0 {
			snap := e.Snapshot()
			for key, cu := range state {
				mustContain := !cu.written.IsZero() && c.Now().Before(cu.expires)
				if mustContain && !snap.Contains(key) {
					t.Fatalf("step %d: stale key %s missing from snapshot (Theorem 1 violated)", step, key)
				}
			}
		}
	}
}

func TestSnapshotIsImmutableCopy(t *testing.T) {
	c := newFakeClock()
	e := newTestEBF(c)
	e.ReportRead("q1", time.Minute)
	snap := e.Snapshot()
	e.ReportWrite("q1")
	if snap.Contains("q1") {
		t.Error("snapshot mutated after later invalidation")
	}
	if !e.Snapshot().Contains("q1") {
		t.Error("new snapshot missing the invalidation")
	}
}

func TestSnapshotAge(t *testing.T) {
	c := newFakeClock()
	e := newTestEBF(c)
	snap := e.Snapshot()
	c.Advance(3 * time.Second)
	if got := snap.Age(c.Now()); got != 3*time.Second {
		t.Errorf("age = %v", got)
	}
	var zero Snapshot
	if zero.Age(c.Now()) != 0 || zero.Contains("x") {
		t.Error("zero snapshot misbehaves")
	}
}

func TestStaleCount(t *testing.T) {
	c := newFakeClock()
	e := newTestEBF(c)
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("k%d", i)
		e.ReportRead(k, 10*time.Second)
		e.ReportWrite(k)
	}
	if n := e.StaleCount(); n != 5 {
		t.Errorf("StaleCount = %d", n)
	}
	c.Advance(11 * time.Second)
	if n := e.StaleCount(); n != 0 {
		t.Errorf("StaleCount after expiry = %d", n)
	}
}

func TestZeroTTLReadIgnored(t *testing.T) {
	c := newFakeClock()
	e := newTestEBF(c)
	e.ReportRead("q1", 0)
	if e.ReportWrite("q1") {
		t.Error("zero-TTL read should not make writes purgeable")
	}
}

// TestClientViewWhitelist: a revalidated key is fresh until the next
// renewal. A renewal that does not say what was flagged since — here the
// in-process Snapshot, which never does — clears the whitelist as the paper
// has it; one covered from the replaced snapshot's position carries the
// entry while the key is not flagged again, and no longer.
func TestClientViewWhitelist(t *testing.T) {
	c := newFakeClock()
	p := NewPartitioned(&Options{Bits: 1 << 14, Hashes: 4, Clock: c.Now})
	p.ReportReads(time.Minute, "t/q1", "t/q2")
	p.ReportWrite("t/q1")
	p.ReportWrite("t/q2")

	v := NewClientView(p.Snapshot())
	if !v.IsStale("t/q1") {
		t.Fatal("view should flag the invalidated key")
	}
	v.MarkRevalidated("t/q1")
	if v.IsStale("t/q1") {
		t.Error("revalidated key still stale (whitelist broken)")
	}
	c.Advance(time.Second)
	if v.Refresh(p.Snapshot()) {
		t.Error("an unpositioned snapshot reported a covered renewal")
	}
	if !v.IsStale("t/q1") {
		t.Error("an uncovered refresh should reset the whitelist")
	}

	// Revalidations answered by the filter's own node, then covered
	// renewals: q1 stays whitelisted, q2 until it is flagged again.
	v.Refresh(positioned(t, p, "", v.Position()))
	_, gen := v.Lookup("t/q1")
	v.Whitelist("t/q1", gen, true)
	v.Whitelist("t/q2", gen, true)
	v.Whitelist("t/never-flagged", gen, true)
	if len(v.whitelist) != 2 {
		t.Errorf("whitelist holds %d keys, want the 2 flagged ones", len(v.whitelist))
	}
	for round := 0; round < 3; round++ {
		c.Advance(time.Second)
		if round == 1 {
			p.ReportWrite("t/q2")
		}
		if !v.Refresh(positioned(t, p, "", v.Position())) {
			t.Fatalf("round %d: a renewal positioned at the installed snapshot was not covered", round)
		}
		if state, _ := v.Lookup("t/q1"); state != Carried {
			t.Errorf("round %d: q1 is %v, want Carried (nothing was flagged)", round, state)
		}
		if got, want := v.IsStale("t/q2"), round >= 1; got != want {
			t.Errorf("round %d: q2 stale = %v, want %v", round, got, want)
		}
	}
	// A revalidation that may have been answered by a lagging node, or was
	// sent under a replaced snapshot, is good for the current Δ at most.
	_, gen = v.Lookup("t/q2")
	v.Whitelist("t/q2", gen, false)
	v.Refresh(positioned(t, p, "", v.Position()))
	v.Whitelist("t/q1", gen, true) // straddled the renewal: dropped
	if state, _ := v.Lookup("t/q2"); state != Stale {
		t.Errorf("q2 is %v after a renewal, want Stale (its revalidation must not be carried)", state)
	}
	// The key leaves the filter: the entry goes with it.
	c.Advance(2 * time.Minute)
	v.Refresh(positioned(t, p, "", v.Position()))
	if len(v.whitelist) != 0 {
		t.Errorf("whitelist holds %d keys the filter no longer flags", len(v.whitelist))
	}
}

// positioned takes the snapshot a poll positioned at since would get.
func positioned(t testing.TB, p *Partitioned, table string, since Position) Snapshot {
	t.Helper()
	snap, err := p.AppendSnapshot(nil, nil, table, since).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestClientViewRejectsOlderSnapshots(t *testing.T) {
	c := newFakeClock()
	e := newTestEBF(c)
	old := e.Snapshot()
	c.Advance(time.Second)
	fresh := e.Snapshot()
	v := NewClientView(fresh)
	v.Refresh(old)
	if !v.GeneratedAt().Equal(fresh.GeneratedAt) {
		t.Error("view moved backwards in time")
	}
}

func TestPartitionedRoutingAndUnion(t *testing.T) {
	c := newFakeClock()
	p := NewPartitioned(&Options{Bits: 1 << 14, Hashes: 4, Clock: c.Now})
	p.ReportRead("posts/p1", time.Minute)
	p.ReportRead("q:users/$true", time.Minute)
	p.ReportWrite("posts/p1")
	p.ReportWrite("q:users/$true")

	// Aggregated snapshot covers both tables (bitwise OR).
	agg := p.Snapshot()
	if !agg.Contains("posts/p1") || !agg.Contains("q:users/$true") {
		t.Error("aggregate snapshot missing a partition's entries")
	}
	// Per-table snapshots only cover their own table.
	postsOnly := p.SnapshotTable("posts")
	if !postsOnly.Contains("posts/p1") {
		t.Error("posts partition missing its key")
	}
	if postsOnly.Contains("q:users/$true") {
		t.Error("posts partition contains users key (should be separate)")
	}
	tables := p.Tables()
	if len(tables) != 2 || tables[0] != "posts" || tables[1] != "users" {
		t.Errorf("tables = %v", tables)
	}
	if st := p.Stats(); st.Invalidations != 2 {
		t.Errorf("aggregated stats = %+v", st)
	}
}

func TestTableOf(t *testing.T) {
	cases := map[string]string{
		"posts/p1":          "posts",
		"q:posts/$and(...)": "posts",
		"q:users/x/y":       "users",
		"bare":              "bare",
	}
	for key, want := range cases {
		if got := TableOf(key); got != want {
			t.Errorf("TableOf(%q) = %q, want %q", key, got, want)
		}
	}
}

// TestSweepIsAmortized pins the TTL-table sweep policy: with 20 000 live
// long-TTL keys in one partition a sweep can delete nothing, so further
// reports must not re-walk the table (the old "opportunistic" sweep
// visited all 20 000 entries on every call: 2×10⁸ visits here).
func TestSweepIsAmortized(t *testing.T) {
	c := newFakeClock()
	p := NewPartitioned(&Options{Bits: 1 << 14, Hashes: 4, Clock: c.Now})
	const live, further = 20000, 10000
	for i := 0; i < live; i++ {
		p.ReportRead(fmt.Sprintf("t/live%d", i), time.Hour)
	}
	before := p.Stats()
	if before.TrackedKeys != live {
		t.Fatalf("tracked keys = %d, want %d", before.TrackedKeys, live)
	}
	for i := 0; i < further; i++ {
		c.Advance(time.Millisecond)
		// Half re-reads of live keys, half new keys.
		p.ReportRead(fmt.Sprintf("t/live%d", i), time.Hour)
		p.ReportRead(fmt.Sprintf("t/new%d", i), time.Hour)
	}
	after := p.Stats()
	if visited := after.SweptEntries - before.SweptEntries; visited > 2*further {
		t.Errorf("%d further reports visited %d entries in sweeps, want O(reads)", 2*further, visited)
	}
	// Over the whole run the geometric schedule keeps sweep work within
	// twice the keys ever inserted.
	if after.SweptEntries > 2*uint64(after.TrackedKeys) {
		t.Errorf("total sweep work %d for %d keys", after.SweptEntries, after.TrackedKeys)
	}
}

// TestTTLTableFlatUnderKeyChurn is the "memory flat under key churn"
// check: 200 000 distinct keys, each served once with a 1 s TTL at one key
// per millisecond, so 1 000 keys are live at any time. The table must stay
// within twice that window plus the sweep floor, with O(1) sweep work per
// report.
func TestTTLTableFlatUnderKeyChurn(t *testing.T) {
	c := newFakeClock()
	e := newTestEBF(c)
	const keys, window = 200000, 1000
	peak := 0
	for i := 0; i < keys; i++ {
		c.Advance(time.Second / window)
		e.ReportRead(fmt.Sprintf("t/k%d", i), time.Second)
		if i%97 == 0 {
			peak = max(peak, e.Stats().TrackedKeys)
		}
	}
	st := e.Stats()
	peak = max(peak, st.TrackedKeys)
	if limit := 2*window + minSweep; peak > limit {
		t.Errorf("TTL table peaked at %d entries, want ≤ %d", peak, limit)
	}
	if st.SweptEntries > 4*keys {
		t.Errorf("sweeps visited %d entries for %d reports", st.SweptEntries, keys)
	}
}

// TestReportReadsMatchesSingleReports checks the batched report against
// the per-key one, including keys of two tables in one batch.
func TestReportReadsMatchesSingleReports(t *testing.T) {
	keys := []string{"q:posts/tags~x", "posts/p1", "posts/p2", "users/u1", "posts/p3"}
	c := newFakeClock()
	opts := &Options{Bits: 1 << 14, Hashes: 4, Clock: c.Now}
	batched, single := NewPartitioned(opts), NewPartitioned(opts)
	batched.ReportReads(10*time.Second, keys...)
	batched.ReportReads(0, "posts/never") // no TTL, nothing cached
	for _, k := range keys {
		single.ReportRead(k, 10*time.Second)
	}
	if b, s := batched.Stats(), single.Stats(); b != s {
		t.Errorf("stats differ: batched %+v, single %+v", b, s)
	}
	if got := batched.Tables(); len(got) != 2 {
		t.Errorf("partitions = %v, want posts and users", got)
	}
	c.Advance(time.Second)
	for _, k := range append(keys, "posts/never") {
		if b, s := batched.ReportWrite(k), single.ReportWrite(k); b != s {
			t.Errorf("ReportWrite(%q): batched %v, single %v", k, b, s)
		}
		if b, s := batched.Contains(k), single.Contains(k); b != s {
			t.Errorf("Contains(%q): batched %v, single %v", k, b, s)
		}
	}
	c.Advance(10 * time.Second)
	if n := batched.Snapshot().Entries; n != 0 {
		t.Errorf("%d entries left after the batch's TTL expired", n)
	}
}

// randomPartitioned builds a filter over 1–3 tables with a random share of
// the served keys invalidated, some of them already expired again.
func randomPartitioned(rng *rand.Rand, c *fakeClock) *Partitioned {
	p := NewPartitioned(&Options{Bits: 1 << 12, Hashes: 4, Clock: c.Now})
	for t, tables := 0, 1+rng.Intn(3); t < tables; t++ {
		for k, keys := 0, rng.Intn(200); k < keys; k++ {
			key := fmt.Sprintf("t%d/k%d", t, k)
			p.ReportRead(key, time.Duration(1+rng.Intn(20))*time.Second)
			if rng.Intn(2) == 0 {
				p.ReportWrite(key)
			}
		}
	}
	c.Advance(time.Duration(rng.Intn(10)) * time.Second)
	return p
}

// TestSnapshotsMatchCloneAndUnion checks the one-pass snapshots — into a
// Filter (Snapshot, SnapshotTable) and into wire form (AppendSnapshot) —
// against the algorithm they replace: clone every partition's mirror, OR
// the clones, marshal the aggregate.
func TestSnapshotsMatchCloneAndUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		c := newFakeClock()
		p := randomPartitioned(rng, c)
		parts := *p.parts.Load()
		for _, table := range append(p.Tables(), "", "never-reported") {
			want := New(&p.opts).Snapshot()
			if table == "" {
				for _, part := range parts {
					snap := part.Snapshot()
					if err := want.Filter.Union(snap.Filter); err != nil {
						t.Fatal(err)
					}
					want.Entries += snap.Entries
				}
			} else if part := parts[table]; part != nil {
				want = part.Snapshot()
			}

			got := p.snapshotOf(table)
			if !bytes.Equal(got.Filter.Marshal(), want.Filter.Marshal()) || got.Entries != want.Entries || !got.GeneratedAt.Equal(c.Now()) {
				t.Fatalf("filter %d table %q: snapshot differs from clone-and-union (entries %d vs %d)", i, table, got.Entries, want.Entries)
			}
			img := p.AppendSnapshot([]byte("kept"), nil, table, Position{})
			if string(img.Wire) != "kept"+string(want.Filter.Marshal()) || img.Entries != want.Entries || !img.GeneratedAt.Equal(c.Now()) {
				t.Fatalf("filter %d table %q: wire snapshot differs from clone-and-union (entries %d vs %d)", i, table, img.Entries, want.Entries)
			}
		}
		if tables := p.Tables(); len(tables) != len(parts) {
			t.Fatalf("snapshot of an unreported table created a partition: %v", tables)
		}
	}
}

// TestRequestPathTakesNoFilterWideLock holds the lock that serializes
// partition creation while reports and snapshots run against existing
// partitions: none of them may wait for it.
func TestRequestPathTakesNoFilterWideLock(t *testing.T) {
	c := newFakeClock()
	p := NewPartitioned(&Options{Bits: 1 << 12, Hashes: 4, Clock: c.Now})
	p.ReportRead("posts/p1", time.Minute)
	p.ReportRead("users/u1", time.Minute)

	p.mu.Lock()
	defer p.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.ReportReads(time.Minute, "q:posts/x", "posts/p1", "users/u1")
		p.ReportWrite("posts/p1")
		p.Contains("users/u1")
		p.Snapshot()
		p.SnapshotTable("posts")
		p.AppendSnapshot(nil, nil, "", Position{})
		p.Stats()
		p.Tables()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a report or snapshot on existing partitions waited for the partition-creation lock")
	}
}

// TestAppendSnapshotAllocatesNothing pins what a poll costs here: with
// reused buffers, no partition clone, no aggregate filter, no marshal copy —
// and nothing more for a positioned poll that lists what was flagged since.
func TestAppendSnapshotAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	p := NewPartitioned(nil)
	flag := func() {
		for _, key := range []string{"posts/p1", "users/u1", "tags/t1"} {
			p.ReportRead(key, time.Minute)
			p.ReportWrite(key)
		}
	}
	flag()
	img := p.AppendSnapshot(nil, nil, "", Position{})
	since := img.At
	flag()
	for _, from := range []Position{{}, since} {
		for _, table := range []string{"", "posts"} {
			allocs := testing.AllocsPerRun(100, func() { img = p.AppendSnapshot(img.Wire[:0], img.Recent[:0], table, from) })
			if allocs != 0 {
				t.Errorf("AppendSnapshot(table %q, since %+v) into reused buffers: %v allocs/op, want 0", table, from, allocs)
			}
			if want := from == since; img.Covered != want || (want && len(img.Recent) == 0) {
				t.Errorf("AppendSnapshot(table %q, since %+v): covered %v with %d bytes of recent", table, from, img.Covered, len(img.Recent))
			}
		}
	}
}
