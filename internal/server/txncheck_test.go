package server

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/store"
)

// TestTransactionsDoNotLoseUpdates races plain increments of one record
// against read-modify-write transactions of it (a read set plus a "set
// n+1" patch). A transaction whose read went stale must be refused, so
// the final value is exactly the plain increments plus the transactions
// that committed: none of either is lost.
func TestTransactionsDoNotLoseUpdates(t *testing.T) {
	const incs, txns = 1000, 1000
	srv := newTestServer(t, 1, nil)
	if err := srv.Insert("posts", document.New("ctr", map[string]any{"n": int64(0)})); err != nil {
		t.Fatal(err)
	}
	var committed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range incs {
			if _, err := srv.Update("posts", "ctr", store.UpdateSpec{Inc: map[string]float64{"n": 1}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range txns {
			doc, err := srv.router.Get("posts", "ctr")
			if err != nil {
				t.Error(err)
				return
			}
			n, _ := doc.Get("n")
			res, err := srv.Commit(TxnRequest{
				Reads:  map[string]int64{RecordKey("posts", "ctr"): doc.Version},
				Writes: []TxnWriteOp{{Op: "patch", Table: "posts", ID: "ctr", Spec: &store.UpdateSpec{Set: map[string]any{"n": n.(int64) + 1}}}},
			})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Committed {
				committed.Add(1)
			}
		}
	}()
	wg.Wait()
	doc, err := srv.router.Get("posts", "ctr")
	if err != nil {
		t.Fatal(err)
	}
	want := incs + committed.Load()
	if n, _ := doc.Get("n"); n != want {
		t.Errorf("n = %v, want %d (%d increments + %d committed transactions): updates were lost", n, want, incs, committed.Load())
	}
}

// TestConflictsNameEveryStaleKey: a transaction whose read set went stale
// on both shards is refused with every stale key, and a stale key on one
// shard refuses the writes on the other.
func TestConflictsNameEveryStaleKey(t *testing.T) {
	srv := newTestServer(t, 2, nil)
	idA, idB := idsOnShards(srv)
	insertPost(t, srv, idA, "x")
	insertPost(t, srv, idB, "x")
	fresh := "fresh"
	res, err := srv.Commit(TxnRequest{
		Reads: map[string]int64{
			RecordKey("posts", idA):   7, // stale: at version 1
			RecordKey("posts", idB):   0, // stale: present
			RecordKey("posts", fresh): 0, // current: absent
		},
		Writes: []TxnWriteOp{
			{Op: "put", Table: "posts", ID: fresh, Doc: document.New(fresh, map[string]any{"n": int64(1)})},
			{Op: "delete", Table: "posts", ID: idA},
			{Op: "delete", Table: "posts", ID: idB},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(res.Conflicts)
	want := []string{RecordKey("posts", idA), RecordKey("posts", idB)}
	slices.Sort(want)
	if res.Committed || !slices.Equal(res.Conflicts, want) {
		t.Errorf("commit = %+v, want conflicts %v", res, want)
	}
	for _, id := range []string{idA, idB} {
		if doc, err := srv.router.Get("posts", id); err != nil || doc.Version != 1 {
			t.Errorf("%s after the refused commit: %v, %v; want version 1", id, doc, err)
		}
	}
	if _, err := srv.router.Get("posts", fresh); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("%s after the refused commit: %v; want not found", fresh, err)
	}
}

// TestCrossShardTransactionsDoNotDeadlock races transactions over one
// record on each of two shards, listed in both orders, against plain
// writes of the same records and scatter-gather queries. Everything must
// finish: a transaction prepares the shards in ascending order whatever
// order its writes come in.
func TestCrossShardTransactionsDoNotDeadlock(t *testing.T) {
	const rounds = 1000
	srv := newTestServer(t, 2, nil)
	idA, idB := idsOnShards(srv)
	insertPost(t, srv, idA, "x")
	insertPost(t, srv, idB, "x")
	inc := &store.UpdateSpec{Inc: map[string]float64{"n": 1}}
	var committed, conflicts atomic.Int64
	var wg sync.WaitGroup
	for _, ids := range [][2]string{{idA, idB}, {idB, idA}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				first, err := srv.router.Get("posts", ids[0])
				if err != nil {
					t.Error(err)
					return
				}
				res, err := srv.Commit(TxnRequest{
					Reads: map[string]int64{RecordKey("posts", ids[0]): first.Version},
					Writes: []TxnWriteOp{
						{Op: "patch", Table: "posts", ID: ids[0], Spec: inc},
						{Op: "patch", Table: "posts", ID: ids[1], Spec: inc},
					},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if res.Committed {
					committed.Add(1)
				} else {
					conflicts.Add(1)
				}
			}
		}()
	}
	for _, id := range []string{idA, idB} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if _, err := srv.Update("posts", id, *inc); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := query.New("posts", query.Contains("tags", "x")).Sorted(query.Desc("n")).Sliced(0, 2)
		for range rounds {
			if _, err := srv.Query(q); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("deadlock: %d transactions committed, %d refused, and the rest are stuck", committed.Load(), conflicts.Load())
	}
	t.Logf("%d transactions committed, %d refused", committed.Load(), conflicts.Load())
	// Every committed transaction and every plain write incremented both
	// records' n (or one of them) exactly once.
	for _, id := range []string{idA, idB} {
		doc, err := srv.router.Get("posts", id)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := doc.Get("n"); n != rounds+committed.Load() {
			t.Errorf("%s: n = %v, want %d", id, n, rounds+committed.Load())
		}
	}
}
