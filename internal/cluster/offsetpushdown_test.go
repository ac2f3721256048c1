package cluster_test

// OFFSET pushdown correctness: a scattered query with an OFFSET window
// must stay byte-identical to the materializing single-node baseline for
// every offset/limit combination — including offsets larger than any
// single shard, where the pushdown provably skips rows shard-side — and
// the plan must disclose the pruning.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"quaestor/internal/cluster"
	"quaestor/internal/document"
	"quaestor/internal/query"
)

// scanQuery is the materializing cross-shard baseline: gather every
// shard's unwindowed candidates by full scan, then apply filter, sort and
// window globally.
func scanQuery(r *cluster.Router, q *query.Query) ([]*document.Document, error) {
	var all []*document.Document
	unwindowed := query.New(q.Table, q.Predicate)
	for _, st := range r.Stores() {
		docs, err := st.ScanQuery(unwindowed)
		if err != nil {
			return nil, err
		}
		all = append(all, docs...)
	}
	return q.Apply(all), nil
}

func TestOffsetPushdownEquivalence(t *testing.T) {
	const shards = 4
	const docs = 300
	rng := rand.New(rand.NewSource(11))

	router := cluster.MustOpen(cluster.Options{Shards: shards})
	defer router.Close()
	if err := router.CreateTable("docs"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < docs; i++ {
		if err := router.Insert("docs", randDoc(rng, fmt.Sprintf("d%04d", i))); err != nil {
			t.Fatal(err)
		}
	}

	queries := []*query.Query{
		query.New("docs", nil).Sorted(query.SortKey{Path: "v"}),
		query.New("docs", query.Gte("v", int64(5))).Sorted(query.SortKey{Path: "v", Desc: true}),
		query.New("docs", query.Eq("grp", "g1")).Sorted(query.SortKey{Path: "grp"}, query.SortKey{Path: "v"}),
		query.New("docs", nil), // unsorted: doc-ID order
	}
	// Offsets straddle the interesting boundaries: 0 (no pushdown), small
	// (pushdown inactive — every shard could hold the window), larger than
	// three shards' worth (pushdown must skip shard-side), past the end.
	offsets := []int{0, 1, 7, docs / 2, docs - shards, docs - 1, docs, docs + 50}
	limits := []int{0, 1, 5, 40, docs}

	for _, base := range queries {
		for _, off := range offsets {
			for _, lim := range limits {
				q := base.Sliced(off, lim)
				want, err := scanQuery(router, q)
				if err != nil {
					t.Fatal(err)
				}
				got, plan, err := router.QueryPlanned(q)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := renderDocs(t, got), renderDocs(t, want); g != w {
					t.Fatalf("%s offset=%d limit=%d diverged:\n--- scattered ---\n%s--- baseline ---\n%s",
						base, off, lim, g, w)
				}
				// An offset bigger than the other shards could possibly
				// absorb forces shard-side skipping, and the plan says so.
				if off > docs-docs/shards && !strings.Contains(plan.Reason, "offset pushdown") {
					t.Errorf("offset=%d limit=%d: plan does not disclose pushdown: %s", off, lim, plan.Reason)
				}
			}
		}
	}
}
