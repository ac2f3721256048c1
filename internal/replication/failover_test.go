package replication_test

// Failover and chaos tests: killing the primary mid-load and promoting
// the replica, and surviving a storm of random stream disconnects.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/replication"
	"quaestor/internal/store"
)

// shadowLog drains a primary subscription into an ordered event log, so
// a test can reconstruct "the primary's state as of sequence R" after
// the primary is gone.
type shadowLog struct {
	mu     sync.Mutex
	events []store.ChangeEvent
	done   chan struct{}
}

func shadowPrimary(p *store.Store) *shadowLog {
	ch, _ := p.SubscribeNamed("shadow")
	sl := &shadowLog{done: make(chan struct{})}
	go func() {
		defer close(sl.done)
		for ev := range ch {
			sl.mu.Lock()
			sl.events = append(sl.events, ev)
			sl.mu.Unlock()
		}
	}()
	return sl
}

// stateAsOf folds the acknowledged event log up to sequence r into the
// expected table → id → document state.
func (sl *shadowLog) stateAsOf(r uint64) map[string]map[string]*document.Document {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	state := map[string]map[string]*document.Document{}
	for _, ev := range sl.events {
		if ev.Seq > r {
			break // events arrive in strict Seq order
		}
		if ev.After == nil {
			continue // sequenced DDL (e.g. create-index) carries no document
		}
		tbl := state[ev.Table]
		if tbl == nil {
			tbl = map[string]*document.Document{}
			state[ev.Table] = tbl
		}
		if ev.Op == store.OpDelete {
			delete(tbl, ev.After.ID)
		} else {
			tbl[ev.After.ID] = ev.After
		}
	}
	return state
}

// ackedMatches reports whether some acknowledged write produced exactly
// this after-image. (id, version) alone is not unique — a key deleted
// and re-inserted restarts its version counter — so the fields must
// match too.
func (sl *shadowLog) ackedMatches(table string, doc *document.Document) bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	for _, ev := range sl.events {
		if ev.Op != store.OpDelete && ev.Table == table && ev.After != nil && ev.After.ID == doc.ID &&
			ev.After.Version == doc.Version && document.DeepEqual(ev.After.Body(), doc.Body()) {
			return true
		}
	}
	return false
}

func (sl *shadowLog) deletedAfter(table, id string, r uint64) bool {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	for _, ev := range sl.events {
		if ev.Seq > r && ev.Table == table && ev.Op == store.OpDelete && ev.After.ID == id {
			return true
		}
	}
	return false
}

// seqWatcher asserts a subscriber of the replica's own pipeline sees a
// strictly increasing stream — across bootstrap jumps and, crucially,
// across promotion. Synthetic events are exempt: a bootstrap import
// publishes its state diff as a floor-sequenced batch (equal Seqs by
// design), which must still land between the pre-import tail and the
// first post-import event.
type seqWatcher struct {
	mu      sync.Mutex
	lastSeq uint64
	count   int
	errs    []string
}

func watchSeqs(ch <-chan store.ChangeEvent) *seqWatcher {
	w := &seqWatcher{}
	go func() {
		for ev := range ch {
			w.mu.Lock()
			if ev.Seq <= w.lastSeq && !ev.Synthetic {
				if len(w.errs) < 10 {
					w.errs = append(w.errs, fmt.Sprintf("seq %d delivered after %d", ev.Seq, w.lastSeq))
				}
			}
			if ev.Seq > w.lastSeq {
				w.lastSeq = ev.Seq
			}
			w.count++
			w.mu.Unlock()
		}
	}()
	return w
}

// TestFailoverPromote kills the primary mid-load and promotes the
// replica. Every write the replica had acknowledged as replicated
// (sequence ≤ its applied position R) must survive byte-equal — that is
// the async log-shipping guarantee — and the promoted node must accept
// new writes, continuing the sequence with no gap for its own
// subscribers.
func TestFailoverPromote(t *testing.T) {
	const writers = 48
	opsEach := 60
	if testing.Short() {
		opsEach = 20
	}
	p := startPrimary(t, t.TempDir(), 1<<14)
	if err := p.db.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	if err := p.db.CreateIndex("docs", "v"); err != nil {
		t.Fatal(err)
	}
	shadow := shadowPrimary(p.db)

	repl := startReplica(t, p.ts.URL, t.TempDir())
	rch, rcancel := repl.Store().SubscribeNamed("downstream")
	defer rcancel()
	downstream := watchSeqs(rch)

	wait := hammer(p.db, writers, opsEach, 64)

	// Kill the primary mid-load: wait for the load to be in full swing
	// and the replica to be past bootstrap, then tear everything down
	// while writers are still writing.
	deadline := time.Now().Add(15 * time.Second)
	for p.db.LastSeq() < uint64(writers*opsEach/3) || repl.Store().LastSeq() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("load never ramped (primary %d, replica %d)", p.db.LastSeq(), repl.Store().LastSeq())
		}
		time.Sleep(time.Millisecond)
	}
	p.close()     // connections die, then the store: acked events all reach the shadow
	<-shadow.done // shadow saw the full published prefix
	wait()        // writers drain their errors

	// Let the replica settle: any batch received before the cut finishes
	// applying; after that its position is frozen.
	settle := repl.Store().LastSeq()
	for {
		time.Sleep(20 * time.Millisecond)
		if now := repl.Store().LastSeq(); now == settle {
			break
		} else {
			settle = now
		}
	}
	r := repl.Store().LastSeq()
	if r == 0 {
		t.Fatal("replica applied nothing before the failover")
	}

	repl.Promote()
	if st := repl.Status(); st.State != replication.StatePromoted || st.ReadOnly {
		t.Fatalf("post-promotion status = %+v", st)
	}

	// No acknowledged replicated write lost, nothing invented. The
	// snapshot floor's semantics allow writes newer than the floor to
	// leak into a bootstrap (the stream re-applies over them), so the
	// promoted state is the acknowledged state at R possibly advanced by
	// a few acknowledged writes in (R, P] — never behind it, and never
	// holding anything the primary didn't acknowledge:
	//
	//  1. every key live at R is present at version ≥ its version at R,
	//     or was deleted by an acknowledged write after R;
	//  2. every document the promoted node holds is byte-equal to an
	//     acknowledged after-image at that exact version.
	want := shadow.stateAsOf(r)
	db := repl.Store()
	for tbl, docs := range want {
		for id, wdoc := range docs {
			got, err := db.Get(tbl, id)
			if err != nil {
				if !shadow.deletedAfter(tbl, id, r) {
					t.Errorf("replicated write lost: %s/%s (v%d): %v", tbl, id, wdoc.Version, err)
				}
				continue
			}
			if got.Version < wdoc.Version && !shadow.deletedAfter(tbl, id, r) {
				// (A lower version with a post-R delete is a re-created
				// key from the acked suffix, not a loss.)
				t.Errorf("%s/%s: promoted node at v%d, behind acknowledged v%d at R=%d", tbl, id, got.Version, wdoc.Version, r)
			}
		}
	}
	for _, tbl := range db.Tables() {
		docs, err := db.ScanQuery(query.New(tbl, nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range docs {
			if !shadow.ackedMatches(tbl, got) {
				t.Errorf("%s/%s v%d %v on promoted node was never acknowledged by the primary", tbl, got.ID, got.Version, got.Body())
			}
		}
	}

	// New writes succeed and extend the sequence without a gap.
	if err := db.Insert("docs", document.New("post-promotion", map[string]any{"v": int64(99)})); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if got := db.LastSeq(); got != r+1 {
		t.Errorf("post-promotion seq = %d, want %d (no gap after the replicated prefix)", got, r+1)
	}
	// The promoted node has the replicated index and answers through the
	// planner. (Which plan it picks is the planner's business: on the
	// one-document table a replica cut right after bootstrap holds, a scan
	// is the cheaper one.)
	if paths, err := db.Indexes("docs"); err != nil || !slices.Contains(paths, "v") {
		t.Errorf("promoted node's indexes on docs = %v, %v; want the replicated index on v", paths, err)
	}
	if docs, _, err := db.QueryPlanned(query.New("docs", query.Eq("v", int64(99)))); err != nil || len(docs) != 1 {
		t.Errorf("post-promotion query: %d docs, %v", len(docs), err)
	}

	// The replica's own subscribers rode across the promotion: strictly
	// increasing stream that includes the post-promotion write.
	wdeadline := time.Now().Add(5 * time.Second)
	for {
		downstream.mu.Lock()
		last := downstream.lastSeq
		errs := append([]string(nil), downstream.errs...)
		downstream.mu.Unlock()
		for _, e := range errs {
			t.Fatalf("downstream subscriber: %s", e)
		}
		if last >= r+1 {
			break
		}
		if time.Now().After(wdeadline) {
			t.Fatalf("downstream subscriber stalled at seq %d, want %d", last, r+1)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestChaosRandomDisconnects hammers the primary while a chaos goroutine
// keeps cutting the replication connection at random intervals. With a
// small fan-out ring the reconnects constantly fall off the ring,
// exercising both catch-up channels (ring → snapshot re-bootstrap) under
// fire; after quiesce the replica must still converge to a byte-equal
// state. Skipped under -short (CI runs the deterministic
// variants).
func TestChaosRandomDisconnects(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos variant skipped in -short")
	}
	const writers = 32
	const opsEach = 120
	p := startPrimary(t, t.TempDir(), 256) // small ring: disconnects frequently fall behind it
	if err := p.db.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	if err := p.db.CreateIndex("docs", "v"); err != nil {
		t.Fatal(err)
	}
	repl := startReplica(t, p.ts.URL, t.TempDir())

	stopChaos := make(chan struct{})
	var chaosWg sync.WaitGroup
	chaosWg.Add(1)
	go func() {
		defer chaosWg.Done()
		r := rand.New(rand.NewSource(42))
		for {
			select {
			case <-stopChaos:
				return
			case <-time.After(time.Duration(1+r.Intn(15)) * time.Millisecond):
				repl.DropConnection()
			}
		}
	}()

	// Paced load: the window stretches over many chaos cuts, so the
	// replica repeatedly loses the stream mid-application.
	wait := hammerPaced(p.db, writers, opsEach, 96, 2*time.Millisecond)
	wait()
	time.Sleep(50 * time.Millisecond) // a few more cuts on the idle tail
	close(stopChaos)
	chaosWg.Wait()

	waitConverged(t, repl, p.db, 30*time.Second)
	assertStateEqual(t, p.db, repl.Store())
	st := repl.Status()
	if st.Reconnects == 0 {
		t.Errorf("chaos run had no reconnects: %+v", st)
	}
	t.Logf("chaos survived: %d reconnects, %d bootstraps, %d records applied",
		st.Reconnects, st.Bootstraps, st.RecordsApplied)
}
