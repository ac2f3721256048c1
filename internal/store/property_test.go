package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"quaestor/internal/document"
	"quaestor/internal/query"
)

// TestPropertyStreamingEqualsScanUnderConcurrentWrites is the streaming
// executor's correctness property: on randomized queries (AND/OR predicate
// shapes, ORDER BY asc/desc, OFFSET/LIMIT windows) the iterator-composed
// executor returns results byte-identical — content AND order — to the
// materializing ScanQuery baseline. During each write storm concurrent
// readers drive QueryPlanned against live shards (result order must still
// respect the query order); after quiescing, every generated query is
// checked for exact equivalence.
func TestPropertyStreamingEqualsScanUnderConcurrentWrites(t *testing.T) {
	const (
		rounds  = 5
		writers = 6
		readers = 3
		opsEach = 120
		idSpace = 100
		queries = 40
	)
	colors := []string{"red", "green", "blue", "cyan"}
	tags := []string{"a", "b", "c", "d", "e"}

	s := MustOpen(&Options{ChangeBuffer: 1 << 14})
	defer s.Close()
	if err := s.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	ch, cancel := s.Subscribe()
	defer cancel()
	go func() {
		for range ch {
		}
	}()
	for _, path := range []string{"color", "n", "tags", "name"} {
		if err := s.CreateIndex("docs", path); err != nil {
			t.Fatal(err)
		}
	}

	randomDoc := func(r *rand.Rand, id string) *document.Document {
		fields := map[string]any{
			"color": colors[r.Intn(len(colors))],
			"n":     int64(r.Intn(40)),
			"tags":  []any{tags[r.Intn(len(tags))], tags[r.Intn(len(tags))]},
			"name":  fmt.Sprintf("%s-%s", colors[r.Intn(len(colors))], id),
		}
		if r.Intn(8) == 0 {
			delete(fields, "n")
		}
		return document.New(id, fields)
	}

	leaf := func(r *rand.Rand) query.Predicate {
		switch r.Intn(7) {
		case 0:
			return query.Eq("color", colors[r.Intn(len(colors))])
		case 1:
			return query.Gt("n", int64(r.Intn(40)))
		case 2:
			return query.Gte("n", int64(r.Intn(40)))
		case 3:
			return query.Lt("n", int64(r.Intn(40)))
		case 4:
			return query.Contains("tags", tags[r.Intn(len(tags))])
		case 5:
			return query.Prefix("name", colors[r.Intn(len(colors))][:2])
		default:
			return query.In("color", colors[r.Intn(len(colors))], colors[r.Intn(len(colors))])
		}
	}
	randomQuery := func(r *rand.Rand) *query.Query {
		var pred query.Predicate
		switch r.Intn(4) {
		case 0:
			pred = leaf(r)
		case 1:
			pred = query.AndOf(leaf(r), leaf(r))
		case 2:
			pred = query.OrOf(leaf(r), leaf(r))
		default:
			pred = query.AndOf(leaf(r), query.NotOf(leaf(r)))
		}
		q := query.New("docs", pred)
		switch r.Intn(3) {
		case 0:
			q = q.Sorted(query.Asc([]string{"n", "name"}[r.Intn(2)]))
		case 1:
			q = q.Sorted(query.Desc([]string{"n", "name"}[r.Intn(2)]))
		}
		if r.Intn(2) == 0 {
			q = q.Sliced(r.Intn(6), r.Intn(20))
		}
		return q
	}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		// Readers race the writers: each result must already be in
		// query order (the executor snapshots shards one at a time, so
		// content can't be compared mid-storm — order and liveness can).
		for rd := 0; rd < readers; rd++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					q := randomQuery(r)
					docs, _, err := s.QueryPlanned(q)
					if err != nil {
						t.Error(err)
						return
					}
					var prev *document.Document
					for _, d := range docs {
						if prev != nil && q.Less(d, prev) {
							t.Errorf("round %d, %s: out-of-order result %s before %s", round, q.Key(), prev.ID, d.ID)
							return
						}
						prev = d
					}
				}
			}(int64(1000*round + rd))
		}
		var writeWG sync.WaitGroup
		for w := 0; w < writers; w++ {
			writeWG.Add(1)
			go func(seed int64) {
				defer writeWG.Done()
				r := rand.New(rand.NewSource(seed))
				for op := 0; op < opsEach; op++ {
					id := fmt.Sprintf("d%03d", r.Intn(idSpace))
					switch r.Intn(4) {
					case 0:
						_ = s.Insert("docs", randomDoc(r, id))
					case 1:
						_ = s.Put("docs", randomDoc(r, id))
					case 2:
						_, _ = s.Update("docs", id, UpdateSpec{Set: map[string]any{
							"n": int64(r.Intn(40)),
						}})
					default:
						_ = s.Delete("docs", id)
					}
				}
			}(int64(100*round + w + 7))
		}
		writeWG.Wait()
		close(stop)
		wg.Wait()

		r := rand.New(rand.NewSource(int64(round + 31)))
		for i := 0; i < queries; i++ {
			q := randomQuery(r)
			streamed, plan, err := s.QueryPlanned(q)
			if err != nil {
				t.Fatal(err)
			}
			scanned, err := s.ScanQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(streamed) != len(scanned) {
				t.Fatalf("round %d, %s (%s/%s): streamed %d docs, scan %d",
					round, q.Key(), plan.Kind, plan.Strategy, len(streamed), len(scanned))
			}
			for j := range streamed {
				a, b := streamed[j], scanned[j]
				if a.ID != b.ID || a.Version != b.Version ||
					document.Canonical(a.Body()) != document.Canonical(b.Body()) {
					t.Fatalf("round %d, %s (%s/%s): position %d differs: %s/v%d vs %s/v%d",
						round, q.Key(), plan.Kind, plan.Strategy, j,
						a.ID, a.Version, b.ID, b.Version)
				}
			}
		}
	}
}

// TestPropertyIndexedEqualsScanUnderConcurrentWrites is the planner's core
// correctness property: after any randomized interleaving of concurrent
// Insert/Put/Update/Delete traffic, an indexed query and a forced full
// scan return identical result sets. Index maintenance rides the shard
// write locks, so the two paths must never diverge once writers quiesce.
func TestPropertyIndexedEqualsScanUnderConcurrentWrites(t *testing.T) {
	const (
		rounds  = 6
		writers = 8
		opsEach = 150
		idSpace = 120
	)
	colors := []string{"red", "green", "blue", "cyan"}
	tags := []string{"a", "b", "c", "d", "e"}

	s := MustOpen(&Options{ChangeBuffer: 1 << 14})
	defer s.Close()
	if err := s.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	// Drain the change stream so writers never block on a full buffer.
	ch, cancel := s.Subscribe()
	defer cancel()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range ch {
		}
	}()

	for _, path := range []string{"color", "n", "tags", "name"} {
		if err := s.CreateIndex("docs", path); err != nil {
			t.Fatal(err)
		}
	}

	randomDoc := func(r *rand.Rand, id string) *document.Document {
		fields := map[string]any{
			"color": colors[r.Intn(len(colors))],
			"n":     int64(r.Intn(50)),
			"tags":  []any{tags[r.Intn(len(tags))], tags[r.Intn(len(tags))]},
			"name":  fmt.Sprintf("%s-%s", colors[r.Intn(len(colors))], id),
		}
		if r.Intn(10) == 0 {
			delete(fields, "color") // sometimes the indexed field is absent
		}
		if r.Intn(8) == 0 {
			fields["tags"] = []any{} // posted whole, unlike non-empty arrays
		}
		return document.New(id, fields)
	}

	checks := []*query.Query{
		query.New("docs", query.Eq("color", "red")),
		query.New("docs", query.Eq("tags", "a")),
		query.New("docs", query.Contains("tags", "c")),
		query.New("docs", query.In("color", "green", "cyan")),
		query.New("docs", query.Gt("n", int64(25))),
		query.New("docs", query.AndOf(query.Gte("n", int64(10)), query.Lte("n", int64(30)))),
		query.New("docs", query.Prefix("name", "blue-")),
		query.New("docs", query.AndOf(query.Eq("color", "blue"), query.Gt("n", int64(20)))),
		query.New("docs", query.Eq("color", "red")).Sorted(query.Desc("n")).Sliced(1, 7),
		// Array values: the probe returns a superset and the residual
		// re-checks it.
		query.New("docs", query.Eq("tags", []any{"a", "b"})),
		query.New("docs", query.In("tags", "e", []any{"c", "d"})),
		query.New("docs", query.Eq("tags", []any{})),
	}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for op := 0; op < opsEach; op++ {
					id := fmt.Sprintf("d%03d", r.Intn(idSpace))
					switch r.Intn(5) {
					case 0:
						_ = s.Insert("docs", randomDoc(r, id)) // ErrExists is fine
					case 1:
						_ = s.Put("docs", randomDoc(r, id))
					case 2:
						_, _ = s.Update("docs", id, UpdateSpec{Set: map[string]any{
							"color": colors[r.Intn(len(colors))],
							"n":     int64(r.Intn(50)),
						}})
					case 3:
						_, _ = s.Update("docs", id, UpdateSpec{
							Push:  map[string]any{"tags": tags[r.Intn(len(tags))]},
							Unset: []string{"name"},
						})
					case 4:
						_ = s.Delete("docs", id) // ErrNotFound is fine
					}
				}
			}(int64(round*writers + w + 1))
		}
		wg.Wait()

		for _, q := range checks {
			indexed, plan, err := s.QueryPlanned(q)
			if err != nil {
				t.Fatal(err)
			}
			scanned, err := s.ScanQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(indexed) != len(scanned) {
				t.Fatalf("round %d, %s (%s): indexed %d docs, scan %d",
					round, q.Key(), plan.Kind, len(indexed), len(scanned))
			}
			for i := range indexed {
				if indexed[i].ID != scanned[i].ID || indexed[i].Version != scanned[i].Version {
					t.Fatalf("round %d, %s (%s): position %d: %s/v%d vs %s/v%d",
						round, q.Key(), plan.Kind, i,
						indexed[i].ID, indexed[i].Version, scanned[i].ID, scanned[i].Version)
				}
			}
		}
	}
}

// TestArrayEqMatchesScan: a non-empty array is indexed under its elements
// only, so an array equality probe returns every document carrying the
// array's first element and the executor re-checks each candidate. The
// answer must equal the scan's, the plan must still be a probe, and the
// conjunct must not be elided.
func TestArrayEqMatchesScan(t *testing.T) {
	s := MustOpen(nil)
	defer s.Close()
	if err := s.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	for id, tags := range map[string]any{
		"exact":    []any{"x", "y"},
		"reversed": []any{"y", "x"},
		"longer":   []any{"x", "y", "z"},
		"other":    []any{"x", "z"},
		"repeated": []any{"x", "x"},
		"scalar":   "x",
		"nested":   []any{[]any{"x", "y"}},
		"holder":   []any{[]any{}},
		"empty":    []any{},
		"w1":       []any{"w"},
		"w2":       []any{"w", "v"},
		"w3":       []any{"v"},
	} {
		if err := s.Insert("docs", document.New(id, map[string]any{"tags": tags})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CreateIndex("docs", "tags"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q    *query.Query
		want []string
	}{
		{query.New("docs", query.Eq("tags", []any{"x", "y"})), []string{"exact"}},
		{query.New("docs", query.Eq("tags", []any{"x", "x"})), []string{"repeated"}},
		{query.New("docs", query.Eq("tags", []any{[]any{"x", "y"}})), []string{"nested"}},
		{query.New("docs", query.In("tags", []any{"y", "x"}, "v")), []string{"reversed", "w2", "w3"}},
		{query.New("docs", query.Eq("tags", []any{})), []string{"empty"}},
	} {
		got, plan, err := s.QueryPlanned(c.q)
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := s.ScanQuery(c.q)
		if err != nil {
			t.Fatal(err)
		}
		ids := func(docs []*document.Document) []string {
			out := make([]string, len(docs))
			for i, d := range docs {
				out[i] = d.ID
			}
			return out
		}
		if g, sc := fmt.Sprint(ids(got)), fmt.Sprint(ids(scanned)); g != sc || g != fmt.Sprint(c.want) {
			t.Errorf("%s: planned %s, scan %s, want %v", c.q.Key(), g, sc, c.want)
		}
		if plan.Kind != query.PlanProbe {
			t.Errorf("%s: plan %s, want a probe", c.q.Key(), plan.Kind)
		}
	}
	_, plan, err := s.QueryPlanned(query.New("docs", query.Eq("tags", []any{"x", "y"})))
	if err != nil {
		t.Fatal(err)
	}
	if plan.ElidedConjuncts != 0 || plan.RowsExamined != 5 || plan.RowsReturned != 1 {
		t.Errorf("array probe: elided %d, examined %d, returned %d; want 0, 5 (the x arrays), 1",
			plan.ElidedConjuncts, plan.RowsExamined, plan.RowsReturned)
	}
}
