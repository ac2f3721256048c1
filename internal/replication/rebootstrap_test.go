package replication_test

// Stale-cache regression for replica re-bootstrap: an InvaliDB-backed
// query subscription and an SSE client on the replica hold results
// containing documents that are deleted (or re-versioned) on the primary
// inside a range the replica can only recover by snapshot bootstrap
// (fan-out ring truncated AND WAL snapshot floor ahead of the replica's
// position). The import's synthetic events must invalidate both caches,
// a concurrent reader must never observe a partially-imported store, and
// the replica's InvaliDB order assertion must stay clean.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/replication"
	"quaestor/internal/server"
	"quaestor/internal/store"
	"quaestor/internal/testutil"
)

// docSet reads a table's id→version map off a store.
func docSet(s *store.Store, table string) (map[string]int64, error) {
	docs, err := s.ScanQuery(query.New(table, nil))
	if err != nil {
		return nil, err
	}
	m := make(map[string]int64, len(docs))
	for _, d := range docs {
		m[d.ID] = d.Version
	}
	return m, nil
}

func sameSet(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for id, v := range a {
		if b[id] != v {
			return false
		}
	}
	return true
}

// eventSink collects (type, id) pairs from a notification feed.
type eventSink struct {
	mu   sync.Mutex
	seen map[string]bool // "type/id"
}

func newEventSink() *eventSink { return &eventSink{seen: map[string]bool{}} }

func (k *eventSink) add(typ, id string) {
	k.mu.Lock()
	k.seen["type="+typ+" id="+id] = true
	k.mu.Unlock()
}

func (k *eventSink) has(typ, id string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.seen["type="+typ+" id="+id]
}

func TestRebootstrapSyntheticEventsInvalidateStaleCaches(t *testing.T) {
	p := startPrimary(t, t.TempDir(), 64) // tiny ring: forces truncation
	if err := p.db.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := p.db.Put("docs", document.New(fmt.Sprintf("k%03d", i), map[string]any{"v": int64(1)})); err != nil {
			t.Fatal(err)
		}
	}

	rdir := t.TempDir()
	repl := startReplica(t, p.ts.URL, rdir)
	rsrv := server.New(repl.Store(), &server.Options{})
	rsrv.AttachReplicas(repl)
	rts, stopRTS := testutil.StartServer(rsrv.Handler())
	t.Cleanup(func() {
		stopRTS()
		rsrv.Close()
	})
	waitConverged(t, repl, p.db, 15*time.Second)

	// An InvaliDB-backed query subscription on the replica server: its
	// result set holds every v=1 document, including the two about to be
	// deleted inside the collapsed range.
	invSink := newEventSink()
	sub, err := rsrv.Subscribe(query.New("docs", query.Eq("v", int64(1))))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	go func() {
		for n := range sub.Events() {
			if n.Doc != nil {
				invSink.add(n.Type.String(), n.Doc.ID)
			}
		}
	}()

	// An SSE client over the replica's HTTP surface, same query.
	sseSink := newEventSink()
	sseResp, err := http.Get(rts.URL + `/v1/subscribe?table=docs&q={"v":1}`)
	if err != nil {
		t.Fatal(err)
	}
	if sseResp.StatusCode != http.StatusOK {
		t.Fatalf("SSE subscribe status %d", sseResp.StatusCode)
	}
	if sseResp.Header.Get(server.HeaderReplica) == "" {
		t.Error("replica SSE stream missing X-Quaestor-Replica header")
	}
	go func() {
		defer sseResp.Body.Close()
		rd := bufio.NewReader(sseResp.Body)
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				return
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev server.SubscriptionEvent
			if json.Unmarshal([]byte(strings.TrimSpace(strings.TrimPrefix(line, "data: "))), &ev) == nil {
				sseSink.add(ev.Type, ev.ID)
			}
		}
	}()

	// Freeze the replica (simulated outage) and capture the state its
	// subscribers currently hold.
	repl.Stop()
	oldSet, err := docSet(repl.Store(), "docs")
	if err != nil {
		t.Fatal(err)
	}

	// The primary moves on: two deletes and one re-version inside what
	// will become the collapsed range, one new match, and enough filler
	// writes to overrun the fan-out ring. The snapshot then truncates the
	// WAL, so the floor lands ahead of the replica's position and rejoin
	// can only go through a full re-bootstrap.
	for _, id := range []string{"k042", "k077"} {
		if err := p.db.Delete("docs", id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.db.Update("docs", "k005", store.UpdateSpec{Set: map[string]any{"v": int64(2)}}); err != nil {
		t.Fatal(err)
	}
	if err := p.db.Put("docs", document.New("x001", map[string]any{"v": int64(1)})); err != nil {
		t.Fatal(err)
	}
	if err := p.db.CreateTable("filler"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := p.db.Put("filler", document.New(fmt.Sprintf("f%04d", i), map[string]any{"i": int64(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	newSet, err := docSet(p.db, "docs")
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent reader: during the whole rejoin, every read of the
	// replica must observe either the complete old state or the complete
	// new state — never a mix.
	var readerMu sync.Mutex
	var readerErrs []string
	readerStop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-readerStop:
				return
			default:
			}
			got, err := docSet(repl.Store(), "docs")
			if err != nil {
				continue // table lookup raced the swap; the next read settles it
			}
			if !sameSet(got, oldSet) && !sameSet(got, newSet) {
				readerMu.Lock()
				if len(readerErrs) < 3 {
					readerErrs = append(readerErrs, fmt.Sprintf("reader observed a mixed store: %d docs (old %d, new %d)", len(got), len(oldSet), len(newSet)))
				}
				readerMu.Unlock()
			}
		}
	}()

	// Rejoin: same store, new replication loop.
	repl2 := replication.New(replication.Options{
		Store:      repl.Store(),
		Primary:    p.ts.URL,
		Name:       "r1",
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 100 * time.Millisecond,
		Logf:       t.Logf,
	})
	repl2.Run()
	t.Cleanup(repl2.Stop)
	waitConverged(t, repl2, p.db, 15*time.Second)
	close(readerStop)
	readerWG.Wait()
	readerMu.Lock()
	for _, e := range readerErrs {
		t.Error(e)
	}
	readerMu.Unlock()

	// Converged does not yet mean counted: ImportSnapshot publishes the
	// store's LastSeq before the replica's bootstrap accounting lands.
	st := repl2.Status()
	for deadline := time.Now().Add(15 * time.Second); st.Bootstraps == 0 && time.Now().Before(deadline); st = repl2.Status() {
		time.Sleep(2 * time.Millisecond)
	}
	if st.Bootstraps == 0 {
		t.Fatalf("status = %+v: rejoin should have required a snapshot bootstrap", st)
	}
	if st.SyntheticDeletes != 2 {
		t.Errorf("SyntheticDeletes = %d, want 2 (k042, k077)", st.SyntheticDeletes)
	}
	// 200 filler + x001 created, k005 re-versioned.
	if st.SyntheticPuts != 202 {
		t.Errorf("SyntheticPuts = %d, want 202", st.SyntheticPuts)
	}

	// Both subscribers converge: the synthetic deletes remove the
	// vanished documents from their held results, the re-versioned
	// document leaves the v=1 result set, and the new match enters it.
	expect := []struct{ typ, id string }{
		{"remove", "k042"},
		{"remove", "k077"},
		{"remove", "k005"},
		{"add", "x001"},
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, want := range expect {
		for !invSink.has(want.typ, want.id) || !sseSink.has(want.typ, want.id) {
			if time.Now().After(deadline) {
				t.Fatalf("subscribers never observed %s %s (invalidb=%v sse=%v)",
					want.typ, want.id, invSink.has(want.typ, want.id), sseSink.has(want.typ, want.id))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// The floor-sequenced synthetic batch must not trip the pipeline's
	// order assertion on either node.
	if !rsrv.InvaliDB().Quiesce(5 * time.Second) {
		t.Error("replica InvaliDB did not quiesce")
	}
	if v := rsrv.InvaliDB().OrderViolations(); v != 0 {
		t.Errorf("replica OrderViolations = %d, want 0", v)
	}
	if v := p.srv.InvaliDB().OrderViolations(); v != 0 {
		t.Errorf("primary OrderViolations = %d, want 0", v)
	}
	assertStateEqual(t, p.db, repl.Store())
}
