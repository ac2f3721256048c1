package store

import (
	"testing"

	"quaestor/internal/document"
	"quaestor/internal/query"
)

func execStore(t *testing.T, n int) *Store {
	t.Helper()
	s := MustOpen(nil)
	t.Cleanup(func() { s.Close() })
	if err := s.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	fill(t, s, "docs", n)
	for _, path := range []string{"color", "rank", "tags"} {
		if err := s.CreateIndex("docs", path); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestExplainStrategy(t *testing.T) {
	s := execStore(t, 200)
	cases := []struct {
		q        *query.Query
		strategy string
		elided   int
	}{
		// Indexed probe, no limit: full sort, probed conjunct elided.
		{query.New("docs", query.Eq("color", "red")), query.StrategySortAll, 1},
		// Limit without a matching ordered index: bounded top-K.
		{query.New("docs", query.Eq("color", "red")).Sorted(query.Desc("rank")).Sliced(0, 5), query.StrategyTopK, 1},
		// Range plan whose path IS the ORDER BY: ordered emission, no sort.
		{query.New("docs", query.Gt("rank", int64(50))).Sorted(query.Asc("rank")).Sliced(0, 10), query.StrategyOrdered, 1},
		{query.New("docs", query.Gt("rank", int64(50))).Sorted(query.Desc("rank")), query.StrategyOrdered, 1},
		// Unindexed scan with limit.
		{query.New("docs", query.Exists("color", true)).Sliced(0, 3), query.StrategyTopK, 0},
		// Residual survives: only the range conjunct is index-guaranteed
		// (the negation is unsargable, so the planner takes the rank range).
		{query.New("docs", query.AndOf(query.Gt("rank", int64(10)), query.NotOf(query.Eq("color", "red")))).Sorted(query.Asc("rank")), query.StrategyOrdered, 1},
	}
	for _, c := range cases {
		plan, err := s.Explain(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Strategy != c.strategy || plan.ElidedConjuncts != c.elided {
			t.Errorf("%s: strategy=%q elided=%d, want %q/%d (plan %+v)",
				c.q.Key(), plan.Strategy, plan.ElidedConjuncts, c.strategy, c.elided, plan)
		}
	}
}

func TestStreamingMatchesScanBaseline(t *testing.T) {
	s := execStore(t, 500)
	queries := []*query.Query{
		// Ordered strategy, both directions, with and without windows.
		query.New("docs", query.Gte("rank", int64(100))).Sorted(query.Asc("rank")),
		query.New("docs", query.Gte("rank", int64(100))).Sorted(query.Desc("rank")),
		query.New("docs", query.Gt("rank", int64(50))).Sorted(query.Asc("rank")).Sliced(0, 10),
		query.New("docs", query.Lt("rank", int64(400))).Sorted(query.Desc("rank")).Sliced(7, 20),
		query.New("docs", query.Gt("rank", int64(480))).Sorted(query.Asc("rank")).Sliced(100, 10), // offset beyond result
		// Top-K over probe and scan sources.
		query.New("docs", query.Eq("color", "blue")).Sorted(query.Desc("rank")).Sliced(0, 7),
		query.New("docs", query.Contains("tags", "t4")).Sorted(query.Asc("rank")).Sliced(3, 9),
		query.New("docs", query.Exists("rank", true)).Sorted(query.Desc("rank")).Sliced(0, 12),
		query.New("docs", nil).Sliced(0, 5), // no ORDER BY: id order window
		// Sort-all across plan kinds.
		query.New("docs", query.In("color", "red", "cyan")).Sorted(query.Desc("rank")),
		query.New("docs", query.In("color")), // empty $in
		query.New("docs", query.AndOf(query.Gte("rank", int64(0)), query.Lte("rank", int64(499)))).Sorted(query.Asc("rank")).Sliced(490, 0),
		query.New("docs", query.OrOf(query.Eq("color", "red"), query.Eq("color", "nope"))).Sorted(query.Asc("rank")),
	}
	for _, q := range queries {
		queriesAgree(t, s, q)
	}
}

func TestCursorSemantics(t *testing.T) {
	s := execStore(t, 50)
	q := query.New("docs", query.Eq("color", "red")).Sorted(query.Asc("rank")).Sliced(0, 3)
	cur, err := s.QueryStream(q)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Remaining() != 3 {
		t.Fatalf("remaining = %d, want 3", cur.Remaining())
	}
	p := cur.Plan()
	if p.Strategy != query.StrategyTopK || p.RowsReturned != 3 || p.RowsExamined < 3 {
		t.Fatalf("plan report = %+v", p)
	}
	// Next clones: mutating the emitted doc must not corrupt store state.
	d, ok := cur.Next()
	if !ok {
		t.Fatal("cursor empty")
	}
	d.Fields["color"] = "mutated"
	if got, _, _ := s.QueryPlanned(query.New("docs", query.Eq("color", "mutated"))); len(got) != 0 {
		t.Fatal("cursor clone leaked into store")
	}
	// NextShared hands out remaining docs, then both emitters report done.
	for cur.Remaining() > 0 {
		if _, ok := cur.NextShared(); !ok {
			t.Fatal("NextShared ended early")
		}
	}
	if _, ok := cur.Next(); ok {
		t.Fatal("Next past end")
	}

	// Empty result window.
	cur, err = s.QueryStream(query.New("docs", query.Eq("color", "nope")))
	if err != nil {
		t.Fatal(err)
	}
	if cur.Remaining() != 0 {
		t.Fatalf("remaining = %d, want 0", cur.Remaining())
	}
	if cur.Plan().RowsReturned != 0 {
		t.Fatalf("plan report = %+v", cur.Plan())
	}
}

func TestMergeOrderedWindow(t *testing.T) {
	q := query.New("docs", nil).Sorted(query.Asc("rank")).Sliced(2, 3)
	mk := func(ranks ...int64) []*document.Document {
		out := make([]*document.Document, len(ranks))
		for i, r := range ranks {
			out[i] = document.New(string(rune('a'+i))+"-"+q.Table, map[string]any{"rank": r})
		}
		return out
	}
	lists := [][]*document.Document{mk(1, 4, 7), mk(2, 5), mk(3)}
	got := MergeOrdered(q, lists)
	if len(got) != 3 {
		t.Fatalf("merged %d docs, want 3", len(got))
	}
	for i, want := range []int64{3, 4, 5} {
		if got[i].Fields["rank"] != want {
			t.Fatalf("pos %d rank = %v, want %d", i, got[i].Fields["rank"], want)
		}
	}
	// Offset past the merged total yields nil.
	if out := MergeOrdered(query.New("docs", nil).Sliced(10, 5), lists); out != nil {
		t.Fatalf("offset past total = %v, want nil", out)
	}
}
