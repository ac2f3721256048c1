package invalidb

import (
	"fmt"
	"maps"
	"sort"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/index"
	"quaestor/internal/query"
	"quaestor/internal/store"
)

// waitStable polls until the collector's event count has stopped growing:
// Quiesce guarantees every notification has been handed to the output
// channel, but the collector goroutine may still be draining it.
func waitStable(col *collector) []Notification {
	last := len(col.snapshot())
	for settled := 0; settled < 20; {
		time.Sleep(5 * time.Millisecond)
		if n := len(col.snapshot()); n == last {
			settled++
		} else {
			last = n
			settled = 0
		}
	}
	return col.snapshot()
}

// TestQueryIndexPrunesCandidates proves the inverted query index only
// evaluates the queries whose posting an after-image carries: with Q
// selective tag queries registered, one write must cost O(1) predicate
// evaluations, not O(Q).
func TestQueryIndexPrunesCandidates(t *testing.T) {
	const numQueries = 200
	db, cluster, col := newTestPipeline(t, nil)
	for i := 0; i < numQueries; i++ {
		if err := cluster.Activate(Registration{Query: tagQuery(fmt.Sprintf("tag%03d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("posts", post("p1", "tag007")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
	if !cluster.Quiesce(5 * time.Second) {
		t.Fatal("pipeline did not drain")
	}
	evaluated := cluster.EvaluatedMatches()
	// The write carries postings for tag007 (plus the whole-array key):
	// far fewer than one evaluation per registered query.
	if evaluated >= numQueries/10 {
		t.Fatalf("evaluated %d candidate queries for one write; index is not pruning (Q=%d)", evaluated, numQueries)
	}
	evs := col.snapshot()
	if len(evs) != 1 || evs[0].QueryKey != tagQuery("tag007").Key() || evs[0].Type != EventAdd {
		t.Fatalf("notifications = %v", evs)
	}
}

// TestQueryIndexResidualQueriesStillMatch ensures queries with no
// derivable posting set (ranges, negations) keep full matching coverage.
func TestQueryIndexResidualQueriesStillMatch(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	rangeQ := query.New("posts", query.Gt("rating", int64(1)))
	if err := cluster.Activate(Registration{Query: rangeQ}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("posts", post("p99", "whatever")); err != nil { // rating = 3
		t.Fatal(err)
	}
	evs := col.wait(t, 1)
	if evs[0].QueryKey != rangeQ.Key() || evs[0].Type != EventAdd {
		t.Fatalf("notifications = %v", evs)
	}
}

// TestQueryIndexHugeInt64Posting pins posting-key folding: a registered
// equality query on (1<<60)+1 must still see an after-image carrying the
// Compare-equal value 1<<60 (both fold to the same float64).
func TestQueryIndexHugeInt64Posting(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	q := query.New("posts", query.Eq("rating", int64(1)<<60+1))
	if err := cluster.Activate(Registration{Query: q}); err != nil {
		t.Fatal(err)
	}
	doc := document.New("p1", map[string]any{"rating": int64(1) << 60})
	if err := db.Insert("posts", doc); err != nil {
		t.Fatal(err)
	}
	evs := col.wait(t, 1)
	if evs[0].QueryKey != q.Key() || evs[0].Type != EventAdd {
		t.Fatalf("notifications = %v", evs)
	}
}

// TestQueryIndexRemoveAfterFieldChange is the was-match side of candidate
// generation: when a write moves a document out of a query's posting, the
// after-image no longer carries the posting, yet the query must still see
// the event to emit its remove.
func TestQueryIndexRemoveAfterFieldChange(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	q := tagQuery("hot")
	if err := cluster.Activate(Registration{Query: q}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("posts", post("p1", "hot")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
	// Retag: the new after-image carries no "hot" posting.
	if err := db.Put("posts", post("p1", "cold")); err != nil {
		t.Fatal(err)
	}
	evs := col.wait(t, 2)
	if evs[1].Type != EventRemove || evs[1].QueryKey != q.Key() {
		t.Fatalf("second event = %v, want remove", evs[1])
	}
	// And deletion of a matching doc still notifies.
	if err := db.Put("posts", post("p2", "hot")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 3)
	if err := db.Delete("posts", "p2"); err != nil {
		t.Fatal(err)
	}
	evs = col.wait(t, 4)
	if evs[3].Type != EventRemove {
		t.Fatalf("delete event = %v, want remove", evs[3])
	}
}

// TestQueryIndexDeactivateCleansUp verifies deactivation removes postings
// and reverse-match state so later writes are not matched.
func TestQueryIndexDeactivateCleansUp(t *testing.T) {
	db, cluster, col := newTestPipeline(t, nil)
	q := tagQuery("x")
	if err := cluster.Activate(Registration{Query: q}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("posts", post("p1", "x")); err != nil {
		t.Fatal(err)
	}
	col.wait(t, 1)
	if err := cluster.Deactivate(q.Key()); err != nil {
		t.Fatal(err)
	}
	if err := db.Put("posts", post("p1", "y")); err != nil {
		t.Fatal(err)
	}
	if !cluster.Quiesce(5 * time.Second) {
		t.Fatal("pipeline did not drain")
	}
	if evs := waitStable(col); len(evs) != 1 {
		t.Fatalf("deactivated query still notified: %v", evs)
	}
}

// TestQueryIndexEquivalentToScanBaseline runs the same randomized write
// sequence through an indexed cluster and a DisableQueryIndex baseline and
// requires identical notification streams — the inverted index must be a
// pure optimization.
func TestQueryIndexEquivalentToScanBaseline(t *testing.T) {
	type run struct {
		cluster *Cluster
		col     *collector
		db      *store.Store
	}
	mkRun := func(disable bool) run {
		db, cluster, col := newTestPipeline(t, &Config{
			QueryPartitions:   2,
			ObjectPartitions:  2,
			DisableQueryIndex: disable,
		})
		return run{cluster: cluster, col: col, db: db}
	}
	runs := []run{mkRun(false), mkRun(true)}

	queries := []*query.Query{
		tagQuery("a"), tagQuery("b"), tagQuery("c"),
		query.New("posts", query.Eq("rating", int64(2))),
		query.New("posts", query.Gt("rating", int64(2))),
		query.New("posts", query.OrOf(query.Contains("tags", "d"), query.Eq("rating", int64(9)))),
	}
	for _, r := range runs {
		for _, q := range queries {
			if err := r.cluster.Activate(Registration{Query: q}); err != nil {
				t.Fatal(err)
			}
		}
	}

	tags := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 120; i++ {
		id := fmt.Sprintf("p%02d", i%20)
		tag1, tag2 := tags[i%len(tags)], tags[(i*7+3)%len(tags)]
		for _, r := range runs {
			switch i % 4 {
			case 0, 1:
				_ = r.db.Put("posts", post(id, tag1, tag2))
			case 2:
				_, _ = r.db.Update("posts", id, store.UpdateSpec{Set: map[string]any{"rating": int64(i % 11)}})
			case 3:
				_ = r.db.Delete("posts", id)
			}
		}
	}
	for _, r := range runs {
		if !r.cluster.Quiesce(10 * time.Second) {
			t.Fatal("pipeline did not drain")
		}
	}

	key := func(n Notification) string {
		return fmt.Sprintf("%s|%d|%d", n.QueryKey, n.Type, n.Seq)
	}
	var got [2][]string
	for i, r := range runs {
		for _, n := range waitStable(r.col) {
			got[i] = append(got[i], key(n))
		}
		sort.Strings(got[i])
	}
	if len(got[0]) != len(got[1]) {
		t.Fatalf("indexed emitted %d notifications, baseline %d", len(got[0]), len(got[1]))
	}
	for i := range got[0] {
		if got[0][i] != got[1][i] {
			t.Fatalf("notification %d differs: indexed %q vs baseline %q", i, got[0][i], got[1][i])
		}
	}
	// Sanity: the baseline must have evaluated far more candidates.
	if runs[0].cluster.EvaluatedMatches() >= runs[1].cluster.EvaluatedMatches() {
		t.Fatalf("index evaluated %d candidates, baseline %d — no pruning",
			runs[0].cluster.EvaluatedMatches(), runs[1].cluster.EvaluatedMatches())
	}
}

// TestQueryIndexCollectReadsTextAsFields: an after-image held as text
// and the same document held in Fields yield the same candidates, and
// both yield exactly the queries posted under the keys index.ValueKeys
// gives its value — whole and, for a non-empty array, each element's —
// at every path in use.
func TestQueryIndexCollectReadsTextAsFields(t *testing.T) {
	qi := newQueryIndex()
	queries := []*query.Query{
		query.New("posts", query.Contains("tags", "a")),
		query.New("posts", query.Contains("tags", "b")),
		query.New("posts", query.Eq("tags", []any{"a", "b"})),
		query.New("posts", query.Eq("tags", []any{})),
		query.New("posts", query.In("n", 1, 2.0, "x")),
		query.New("posts", query.Eq("o.p", map[string]any{"q": []any{int64(1), "s"}})),
		query.New("posts", query.Contains("m", []any{int64(1), int64(2)})),
		query.New("posts", query.OrOf(query.Eq("s", "x<y"), query.Eq("s", "é\n"))),
		query.New("posts", query.Eq("big", int64(1)<<60)),
		query.New("posts", query.Gt("n", 0)), // residual: a candidate for every event
		query.New("other", query.Contains("tags", "a")),
	}
	for _, q := range queries {
		qi.add(q.Key(), &nodeQuery{q: q})
	}
	docs := []map[string]any{
		{"tags": []any{"a", "b"}, "n": 2, "s": "x<y"},
		{"tags": []any{}, "n": 1.0, "o": map[string]any{"p": map[string]any{"q": []any{1, "s"}}}},
		{"tags": "a", "m": []any{[]any{1, 2}, []any{3}}, "s": "é\n", "big": int64(1)<<60 + 1},
		{"tags": []any{"b", "a", "a"}, "n": "x", "o": map[string]any{"p": nil}},
		{"other": true},
	}
	for i, fields := range docs {
		doc := document.New(fmt.Sprintf("d%d", i), fields)
		wire, err := doc.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		text := new(document.Document)
		if err := document.NewDecoder(wire).DocumentText(text); err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for key := range qi.residual {
			want[key] = true
		}
		for path, byKey := range qi.tables["posts"] {
			v, ok := doc.Get(path)
			if !ok {
				continue
			}
			whole, elems := index.ValueKeys(v)
			for _, k := range append(elems, whole) {
				for key := range byKey[k] {
					want[key] = true
				}
			}
		}
		for _, after := range []*document.Document{doc, text} {
			out := map[string]*nodeQuery{}
			before := document.TextDecodes()
			qi.collect(&store.ChangeEvent{Table: "posts", After: after}, out)
			if document.TextDecodes() != before {
				t.Errorf("%s: collect decoded the after-image", wire)
			}
			got := map[string]bool{}
			for key := range out {
				got[key] = true
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s (text %v): candidates %v, want %v", wire, after == text, got, want)
			}
		}
	}
}
