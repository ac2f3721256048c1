package server

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quaestor/internal/cluster"
	"quaestor/internal/commitlog"
	"quaestor/internal/document"
	"quaestor/internal/invalidb"
	"quaestor/internal/query"
	"quaestor/internal/store"
)

// TestTransfersAreSeenWhole runs transfers between two accounts of one
// shard through Commit while readers look at them every way the server
// offers, and requires that none sees a partial transfer. Every transfer
// rewrites both accounts, so both carry the same version after each
// commit and their balances always sum to the same total:
//   - a Get of one account and then of the other never finds the second
//     older than the first (each Get is a point in time, so it may find
//     it newer), and when their versions agree the sum holds;
//   - a query returning both finds equal versions and the sum;
//   - an InvaliDB subscription (the feed SSE streams) receives each
//     transfer's two notifications next to each other, Seqs adjacent,
//     with equal versions and the sum.
//
// It runs on an in-memory store and on a durable one (fsync always).
func TestTransfersAreSeenWhole(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) { testTransfersAreSeenWhole(t, durable) })
	}
}

func testTransfersAreSeenWhole(t *testing.T, durable bool) {
	const total, writers, transfers = 2000, 4, 60
	opts := cluster.Options{Shards: 1}
	if durable {
		opts.Store.DataDir = t.TempDir() // the zero Durability fsyncs always
	}
	srv := newServerOn(t, cluster.MustOpen(opts), nil)
	if err := srv.router.CreateTable("accounts"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b"} {
		if err := srv.Insert("accounts", document.New(id, map[string]any{"kind": "acct", "bal": int64(total / 2)})); err != nil {
			t.Fatal(err)
		}
	}
	accounts := query.New("accounts", query.Eq("kind", "acct"))
	sub, err := srv.Subscribe(accounts)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var notes []invalidb.Notification
	var received atomic.Int64
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for n := range sub.Events() {
			notes = append(notes, n)
			received.Add(1)
		}
	}()

	balance := func(d *document.Document) int64 { return d.Fields["bal"].(int64) }
	var stop atomic.Bool
	var readers sync.WaitGroup
	for _, pair := range [][2]string{{"a", "b"}, {"b", "a"}} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				first, err1 := srv.Read("accounts", pair[0])
				second, err2 := srv.Read("accounts", pair[1])
				if err1 != nil || err2 != nil {
					t.Errorf("read: %v, %v", err1, err2)
					return
				}
				v1, v2 := first.Doc.Version, second.Doc.Version
				if v2 < v1 {
					t.Errorf("read %s at v%d, then %s at v%d: a partial transfer", pair[0], v1, pair[1], v2)
					return
				}
				if v1 == v2 && balance(first.Doc)+balance(second.Doc) != total {
					t.Errorf("both at v%d, balances sum to %d", v1, balance(first.Doc)+balance(second.Doc))
					return
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			docs, _, err := srv.router.QueryPlanned(accounts)
			if err != nil || len(docs) != 2 {
				t.Errorf("query: %d documents, %v", len(docs), err)
				return
			}
			if docs[0].Version != docs[1].Version || balance(docs[0])+balance(docs[1]) != total {
				t.Errorf("query saw a partial transfer: %s@%d %d, %s@%d %d", docs[0].ID, docs[0].Version, balance(docs[0]), docs[1].ID, docs[1].Version, balance(docs[1]))
				return
			}
		}
	}()

	var committed atomic.Int64
	var writersWG sync.WaitGroup
	for w := range writers {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := 0; i < transfers; {
				// A subscription drops what its buffer cannot hold, so the
				// writers stay within half of it of the feed's consumer,
				// which a busy host may otherwise not schedule in time.
				for 2*committed.Load()-received.Load() > subscriptionBuffer/2 {
					time.Sleep(50 * time.Microsecond)
				}
				a, err1 := srv.router.Get("accounts", "a")
				b, err2 := srv.router.Get("accounts", "b")
				if err1 != nil || err2 != nil {
					t.Errorf("writer read: %v, %v", err1, err2)
					return
				}
				amount := int64(w*transfers+i)%50 - 25
				res, err := srv.Commit(TxnRequest{
					Reads: map[string]int64{RecordKey("accounts", "a"): a.Version, RecordKey("accounts", "b"): b.Version},
					Writes: []TxnWriteOp{
						{Op: "put", Table: "accounts", ID: "a", Doc: document.New("a", map[string]any{"kind": "acct", "bal": balance(a) - amount})},
						{Op: "put", Table: "accounts", ID: "b", Doc: document.New("b", map[string]any{"kind": "acct", "bal": balance(b) + amount})},
					},
				})
				if err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if res.Committed {
					committed.Add(1)
					i++
				}
			}
		}()
	}
	writersWG.Wait()
	stop.Store(true)
	readers.Wait()
	if !srv.Settle(10 * time.Second) {
		t.Fatal("invalidation pipeline did not settle")
	}
	sub.Close()
	<-fed

	if dropped := srv.sseDropped.Load(); dropped != 0 {
		t.Fatalf("the subscription dropped %d notifications", dropped)
	}
	if want := 2 * int(committed.Load()); len(notes) != want {
		t.Fatalf("%d notifications for %d transfers, want %d", len(notes), committed.Load(), want)
	}
	for i := 0; i+1 < len(notes); i += 2 {
		x, y := notes[i], notes[i+1]
		if y.Seq != x.Seq+1 || x.Doc.ID == y.Doc.ID || x.Doc.Version != y.Doc.Version || balance(x.Doc)+balance(y.Doc) != total {
			t.Fatalf("notifications %d and %d are not one transfer: %s@%d seq %d bal %d, %s@%d seq %d bal %d",
				i, i+1, x.Doc.ID, x.Doc.Version, x.Seq, balance(x.Doc), y.Doc.ID, y.Doc.Version, y.Seq, balance(y.Doc))
		}
	}
}

// TestTransactionEventsArriveAsOneBatch: a committed transaction reaches a
// commit-log subscriber in one batch, its events at contiguous Seqs in the
// order of its writes, while plain writes commit around it.
func TestTransactionEventsArriveAsOneBatch(t *testing.T) {
	const txns, size = 5, 100
	srv := newTestServer(t, 1, nil)
	sub := srv.router.Store(0).SubscribeTail("check")
	defer sub.Cancel()

	var stop atomic.Bool
	noise := make(chan struct{})
	go func() {
		defer close(noise)
		for i := 0; !stop.Load(); i++ {
			if err := srv.Put("posts", document.New(fmt.Sprintf("n%d", i%50), map[string]any{"i": int64(i)})); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for k := range txns {
		req := TxnRequest{}
		for i := range size {
			id := fmt.Sprintf("t%d-%03d", k, i)
			req.Writes = append(req.Writes, TxnWriteOp{Op: "put", Table: "posts", ID: id, Doc: document.New(id, map[string]any{"k": int64(k)})})
		}
		if res, err := srv.Commit(req); err != nil || !res.Committed {
			t.Fatalf("commit %d: %+v, %v", k, res, err)
		}
	}
	stop.Store(true)
	<-noise

	seen := 0
	deadline := time.After(10 * time.Second)
	for seen < txns {
		var batch []commitlog.Event
		select {
		case batch = <-sub.Events():
		case <-deadline:
			t.Fatalf("saw %d of %d transactions", seen, txns)
		}
		for i := 0; i < len(batch); i++ {
			k, ok := batch[i].After.Fields["k"]
			if !ok {
				continue // a plain write
			}
			if i+size > len(batch) {
				t.Fatalf("transaction %d: %d of its events in a batch of %d", k, len(batch)-i, len(batch))
			}
			for j, ev := range batch[i : i+size] {
				if want := fmt.Sprintf("t%d-%03d", k, j); ev.After.ID != want || ev.Seq != batch[i].Seq+uint64(j) {
					t.Fatalf("transaction %d, event %d: %s at seq %d, want %s at seq %d", k, j, ev.After.ID, ev.Seq, want, batch[i].Seq+uint64(j))
				}
			}
			i += size - 1
			seen++
		}
	}
}

// TestDurableTransactionFsyncsOnce: under fsync always, a 100-put
// transaction is one WAL group — one write call and one fsync — whose
// 100 records are all appended.
func TestDurableTransactionFsyncsOnce(t *testing.T) {
	const size = 100
	router := cluster.MustOpen(cluster.Options{Shards: 1, Store: store.Options{DataDir: t.TempDir()}})
	srv := newServerOn(t, router, nil)
	st := router.Store(0)
	before, ok := st.DurabilityStats()
	if !ok {
		t.Fatal("store is not durable")
	}
	req := TxnRequest{}
	for i := range size {
		id := fmt.Sprintf("p%03d", i)
		req.Writes = append(req.Writes, TxnWriteOp{Op: "put", Table: "posts", ID: id, Doc: document.New(id, map[string]any{"i": int64(i)})})
	}
	if res, err := srv.Commit(req); err != nil || !res.Committed {
		t.Fatalf("commit: %+v, %v", res, err)
	}
	after, _ := st.DurabilityStats()
	if d := after.WAL.Fsyncs - before.WAL.Fsyncs; d != 1 {
		t.Errorf("the transaction took %d fsyncs, want 1", d)
	}
	if d := after.WAL.Batches - before.WAL.Batches; d != 1 {
		t.Errorf("the transaction took %d WAL write calls, want 1", d)
	}
	if d := after.WAL.Appends - before.WAL.Appends; d != size {
		t.Errorf("the transaction appended %d records, want %d", d, size)
	}
}

// TestCrossShardRefusalWritesNothing: a transaction across two shards
// whose second shard refuses its part writes nothing on either shard. The
// first shard's part was prepared and then aborted, so no reader saw it,
// the EBF does not flag its record although a cache holds it, and no
// write is counted.
func TestCrossShardRefusalWritesNothing(t *testing.T) {
	srv := newTestServer(t, 2, nil)
	idA, idB := idsOnShards(srv) // idA on shard 0, which is prepared first
	insertPost(t, srv, idA, "x")
	if _, err := srv.Read("posts", idA); err != nil { // a cache now holds idA
		t.Fatal(err)
	}
	// A conditional patch of a record the transaction itself wrote is
	// decided against that write, so shard 1 refuses its part.
	_, err := srv.Commit(TxnRequest{Writes: []TxnWriteOp{
		{Op: "put", Table: "posts", ID: idA, Doc: document.New(idA, map[string]any{"n": int64(1)})},
		{Op: "put", Table: "posts", ID: idB, Doc: document.New(idB, map[string]any{"n": int64(1)})},
		{Op: "patch", Table: "posts", ID: idB, Spec: &store.UpdateSpec{Set: map[string]any{"n": int64(2)}, IfVersion: 99}},
	}})
	if !errors.Is(err, store.ErrVersionCheck) {
		t.Fatalf("commit: %v, want a version check from shard 1", err)
	}
	if doc, err := srv.router.Get("posts", idA); err != nil || doc.Version != 1 {
		t.Fatalf("%s after the commit: %v, %v; want the insert at version 1", idA, doc, err)
	}
	if _, err := srv.router.Get("posts", idB); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("%s after the commit: %v; shard 1's part should have written nothing", idB, err)
	}
	if srv.coh.Contains(RecordKey("posts", idA)) {
		t.Errorf("the EBF flags %s, which the refused transaction did not write", idA)
	}
	if got := srv.Stats().Writes; got != 1 {
		t.Errorf("Stats().Writes = %d, want 1 (the insert)", got)
	}
	for sh, st := range srv.router.Stores() {
		if got := st.LastSeq(); got != uint64(1-sh) {
			t.Errorf("shard %d's last Seq = %d, want %d", sh, got, 1-sh)
		}
	}
}

// idsOnShards returns a record id owned by shard 0 and one owned by
// shard 1.
func idsOnShards(srv *Server) (idA, idB string) {
	for i := 0; idA == "" || idB == ""; i++ {
		id := fmt.Sprintf("p%d", i)
		switch srv.router.ShardFor(id) {
		case 0:
			idA = cmp.Or(idA, id)
		case 1:
			idB = cmp.Or(idB, id)
		}
	}
	return idA, idB
}
