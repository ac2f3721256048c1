package store

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/wal"
)

// shadowDoc mirrors one key's expected recovered state. A deleted key
// keeps its tombstone's version (fields nil): a re-creation continues
// from it.
type shadowDoc struct {
	fields  map[string]any
	version int64
}

func (sd *shadowDoc) live() bool { return sd != nil && sd.fields != nil }

// next is the version the key's next write (or tombstone) carries.
func (sd *shadowDoc) next() int64 {
	if sd == nil {
		return 1
	}
	return sd.version + 1
}

// checkAgainstShadow asserts the store's contents, versions, indexes and
// query results match the shadow exactly.
func checkAgainstShadow(t *testing.T, s *Store, tableName string, shadow map[string]*shadowDoc) {
	t.Helper()
	live := 0
	for id, sd := range shadow {
		got, err := s.Get(tableName, id)
		if !sd.live() {
			if err == nil {
				t.Errorf("key %s: deleted in shadow but present (v%d)", id, got.Version)
			}
			continue
		}
		live++
		if err != nil {
			t.Errorf("key %s: %v (shadow has v%d)", id, err, sd.version)
			continue
		}
		if got.Version != sd.version {
			t.Errorf("key %s: version %d, shadow %d", id, got.Version, sd.version)
		}
		if !document.DeepEqual(got.Body(), sd.fields) {
			t.Errorf("key %s: fields %v, shadow %v", id, got.Body(), sd.fields)
		}
	}
	if n, err := s.Count(tableName); err != nil || n != live {
		t.Errorf("count = %d (%v), shadow has %d live docs", n, err, live)
	}
	// Indexed reads agree with both a forced scan and the shadow.
	for _, v := range []int64{0, 3, 7} {
		q := query.New(tableName, query.Eq("v", v))
		indexed, plan, err := s.QueryPlanned(q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Kind == query.PlanScan {
			t.Errorf("query %s not using the recovered index", q.Key())
		}
		scanned, err := s.ScanQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		wantN := 0
		for _, sd := range shadow {
			if sd.live() && document.DeepEqual(sd.fields["v"], v) {
				wantN++
			}
		}
		if len(indexed) != wantN || len(scanned) != wantN {
			t.Errorf("v=%d: indexed %d, scanned %d, shadow %d", v, len(indexed), len(scanned), wantN)
		}
	}
}

// TestPropertyCrashRecoveryMatchesShadow runs randomized concurrent
// writes against a durable store mirrored into a shadow map (each worker
// owns a disjoint key range, so the shadow needs no coordination), then:
//
//  1. reopens after a clean close and requires contents, versions,
//     indexes and LastSeq to match the shadow exactly;
//  2. appends a sequential op tail, hard-stops by truncating the last
//     WAL segment at a random byte offset (usually mid-record), reopens,
//     and requires the recovered state to equal the shadow replayed up
//     to exactly the surviving record count (recovered LastSeq tells
//     which prefix survived).
func TestPropertyCrashRecoveryMatchesShadow(t *testing.T) {
	const (
		workers       = 4
		keysPerWorker = 40
		table         = "docs"
	)
	opsEach := 600
	if testing.Short() {
		opsEach = 150
	}

	dir := t.TempDir()
	s := openDurable(t, dir, wal.FsyncNever)
	if err := s.CreateTable(table); err != nil {
		t.Fatal(err)
	}
	// The change stream must mirror the WAL exactly: every event the
	// pipeline delivers corresponds to a write the log accepted, in
	// strictly increasing dense Seq order, and no event is ever delivered
	// for a write the WAL did not acknowledge (the post-commit hook only
	// fires for written records). Subscribed before the first sequenced
	// write (the index DDL is seq 1): under FsyncNever a write returns
	// before the committer publishes it, so a later subscription may or
	// may not see it.
	streamCh, streamCancel := s.Subscribe()
	if err := s.CreateIndex(table, "v"); err != nil {
		t.Fatal(err)
	}
	var streamMu sync.Mutex
	var streamSeqs []uint64
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		for ev := range streamCh {
			streamMu.Lock()
			streamSeqs = append(streamSeqs, ev.Seq)
			streamMu.Unlock()
		}
	}()

	shadows := make([]map[string]*shadowDoc, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		shadows[w] = map[string]*shadowDoc{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w + 1)))
			shadow := shadows[w]
			for op := 0; op < opsEach; op++ {
				id := fmt.Sprintf("w%d-k%02d", w, r.Intn(keysPerWorker))
				cur := shadow[id]
				switch r.Intn(4) {
				case 0: // insert (only when absent, so it must succeed)
					if cur.live() {
						continue
					}
					fields := map[string]any{"v": int64(r.Intn(10)), "w": int64(w)}
					if err := s.Insert(table, document.New(id, fields)); err != nil {
						t.Errorf("insert %s: %v", id, err)
						return
					}
					shadow[id] = &shadowDoc{fields: document.CloneValue(document.Normalize(fields)).(map[string]any), version: cur.next()}
				case 1: // upsert
					fields := map[string]any{"v": int64(r.Intn(10)), "p": fmt.Sprintf("x%d", op)}
					if err := s.Put(table, document.New(id, fields)); err != nil {
						t.Errorf("put %s: %v", id, err)
						return
					}
					shadow[id] = &shadowDoc{fields: document.CloneValue(document.Normalize(fields)).(map[string]any), version: cur.next()}
				case 2: // partial update
					if !cur.live() {
						continue
					}
					delta := float64(r.Intn(5))
					after, err := s.Update(table, id, UpdateSpec{
						Set: map[string]any{"v": int64(r.Intn(10))},
						Inc: map[string]float64{"n": delta},
					})
					if err != nil {
						t.Errorf("update %s: %v", id, err)
						return
					}
					shadow[id] = &shadowDoc{fields: document.CloneValue(after.Body()).(map[string]any), version: after.Version}
				case 3: // delete
					if !cur.live() {
						continue
					}
					if err := s.Delete(table, id); err != nil {
						t.Errorf("delete %s: %v", id, err)
						return
					}
					shadow[id] = &shadowDoc{version: cur.next()}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	shadow := map[string]*shadowDoc{}
	for _, m := range shadows {
		for id, sd := range m {
			shadow[id] = sd
		}
	}
	wantSeq := s.LastSeq()
	// Every write above was acknowledged; the stream must deliver exactly
	// seqs 1..wantSeq, in order, before (or while) the store closes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		streamMu.Lock()
		n := len(streamSeqs)
		streamMu.Unlock()
		if uint64(n) >= wantSeq || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	streamMu.Lock()
	if uint64(len(streamSeqs)) != wantSeq {
		t.Errorf("stream delivered %d events, WAL acknowledged %d writes", len(streamSeqs), wantSeq)
	}
	for i, seq := range streamSeqs {
		if seq != uint64(i+1) {
			t.Errorf("stream position %d carries seq %d — not the dense acknowledged order", i, seq)
			break
		}
	}
	streamMu.Unlock()
	streamCancel()
	s.Close()

	// Phase 1: clean restart.
	s = openDurable(t, dir, wal.FsyncNever)
	if got := s.LastSeq(); got != wantSeq {
		t.Errorf("clean restart: LastSeq = %d, want %d", got, wantSeq)
	}
	checkAgainstShadow(t, s, table, shadow)

	// Phase 2: sequential tail + random hard-stop. Each op touches its
	// own key and appends exactly one record, so record i in the tail is
	// op i, and the recovered LastSeq identifies the surviving prefix.
	segBefore := lastSegment(t, dir)
	fiBefore, err := os.Stat(segBefore)
	if err != nil {
		t.Fatal(err)
	}
	const tailOps = 60
	type tailOp struct {
		id     string
		fields map[string]any
		del    bool
	}
	r := rand.New(rand.NewSource(99))
	var tail []tailOp
	for i := 0; i < tailOps; i++ {
		id := fmt.Sprintf("tail-%02d", i%20)
		if sd := shadow[id]; sd.live() && r.Intn(4) == 0 {
			if err := s.Delete(table, id); err != nil {
				t.Fatal(err)
			}
			tail = append(tail, tailOp{id: id, del: true})
			shadow[id] = &shadowDoc{version: sd.next()}
			continue
		}
		fields := map[string]any{"v": int64(r.Intn(10)), "i": int64(i)}
		if err := s.Put(table, document.New(id, fields)); err != nil {
			t.Fatal(err)
		}
		tail = append(tail, tailOp{id: id, fields: fields})
		// Maintain the shadow as if all tail ops committed; the surviving
		// prefix is re-applied below once we know where the cut landed.
		shadow[id] = &shadowDoc{fields: document.CloneValue(document.Normalize(fields)).(map[string]any), version: shadow[id].next()}
	}
	// Rebuild the shadow's tail-key state from scratch per surviving
	// prefix, so start the tail keys from their phase-1 state.
	s.Close()

	seg := lastSegment(t, dir)
	if seg != segBefore {
		t.Skipf("wal rotated during tail (%s -> %s); offset bookkeeping invalid", segBefore, seg)
	}
	fiAfter, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Hard-stop: cut the segment at a random offset inside the tail's
	// bytes — almost always mid-record.
	cut := fiBefore.Size() + 1 + r.Int63n(fiAfter.Size()-fiBefore.Size()-1)
	if err := os.Truncate(seg, cut); err != nil {
		t.Fatal(err)
	}

	s = openDurable(t, dir, wal.FsyncNever)
	defer s.Close()
	got := s.LastSeq()
	if got < wantSeq || got > wantSeq+tailOps {
		t.Fatalf("post-crash LastSeq = %d, want within [%d, %d]", got, wantSeq, wantSeq+tailOps)
	}
	survived := int(got - wantSeq)
	// Reconstruct the expected tail-key state from the surviving prefix.
	for id := range shadow {
		if len(id) >= 4 && id[:4] == "tail" {
			delete(shadow, id)
		}
	}
	for i := 0; i < survived; i++ {
		op := tail[i]
		if op.del {
			shadow[op.id] = &shadowDoc{version: shadow[op.id].next()}
			continue
		}
		shadow[op.id] = &shadowDoc{fields: document.CloneValue(document.Normalize(op.fields)).(map[string]any), version: shadow[op.id].next()}
	}
	st, _ := s.DurabilityStats()
	t.Logf("cut at byte %d: %d/%d tail ops survived, torn tail: %v", cut, survived, tailOps, st.Recovery.TornTail)
	checkAgainstShadow(t, s, table, shadow)

	// The recovered pipeline resumes exactly where the surviving log
	// ends: no event is replayed for truncated (never-acknowledged-
	// on-disk) writes, and new writes continue the dense Seq stream.
	postCh, postCancel := s.Subscribe()
	defer postCancel()
	for i := 0; i < 3; i++ {
		if err := s.Put(table, document.New(fmt.Sprintf("post-crash-%d", i), map[string]any{"v": int64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case ev := <-postCh:
			if wantPost := got + uint64(i+1); ev.Seq != wantPost {
				t.Errorf("post-crash event %d has seq %d, want %d", i, ev.Seq, wantPost)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("post-crash stream stalled")
		}
	}
}
