package cluster_test

// Cross-shard correctness property: a sharded scatter-gather QueryPlanned
// must be byte-identical — content AND order — to a single-node
// ScanQuery over the same data, for randomized predicates, orderings and
// windows, while concurrent writers hammer the shards. The per-shard
// ordered change streams feeding InvaliDB must show zero order
// violations throughout: sharding must not leak disorder into the
// invalidation pipeline.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"quaestor/internal/cluster"
	"quaestor/internal/document"
	"quaestor/internal/invalidb"
	"quaestor/internal/query"
	"quaestor/internal/store"
)

// genQuery builds a random query over the test schema (v int, grp string,
// tags array): random predicate shape, random ordering, random window.
func genQuery(rng *rand.Rand) *query.Query {
	var pred query.Predicate
	switch rng.Intn(6) {
	case 0:
		pred = nil // full scan
	case 1:
		pred = query.Eq("grp", fmt.Sprintf("g%d", rng.Intn(5)))
	case 2:
		pred = query.Gte("v", int64(rng.Intn(20)))
	case 3:
		pred = query.AndOf(query.Gte("v", int64(rng.Intn(10))), query.Lt("v", int64(10+rng.Intn(10))))
	case 4:
		pred = query.Contains("tags", fmt.Sprintf("t%d", rng.Intn(4)))
	case 5:
		pred = query.OrOf(query.Eq("grp", "g0"), query.Gt("v", int64(15)))
	}
	q := query.New("docs", pred)
	switch rng.Intn(4) {
	case 1:
		q = q.Sorted(query.SortKey{Path: "v"})
	case 2:
		q = q.Sorted(query.SortKey{Path: "v", Desc: true}, query.SortKey{Path: "grp"})
	case 3:
		q = q.Sorted(query.SortKey{Path: "grp"})
	}
	if rng.Intn(2) == 1 {
		q = q.Sliced(rng.Intn(20), 1+rng.Intn(30))
	}
	return q
}

func randDoc(rng *rand.Rand, id string) *document.Document {
	tags := []any{}
	for i := 0; i < 4; i++ {
		if rng.Intn(2) == 1 {
			tags = append(tags, fmt.Sprintf("t%d", i))
		}
	}
	return document.New(id, map[string]any{
		"v":    int64(rng.Intn(20)),
		"grp":  fmt.Sprintf("g%d", rng.Intn(5)),
		"tags": tags,
	})
}

// renderDocs is the byte-identity oracle: the full JSON of every document
// in result order.
func renderDocs(t *testing.T, docs []*document.Document) string {
	t.Helper()
	out := ""
	for _, d := range docs {
		js, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		out += string(js) + "\n"
	}
	return out
}

func scattered(t *testing.T, r *cluster.Router, q *query.Query) []*document.Document {
	t.Helper()
	docs, _, err := r.QueryPlanned(q)
	if err != nil {
		t.Fatal(err)
	}
	return docs
}

func TestCrossShardQueryEquivalenceUnderConcurrentWrites(t *testing.T) {
	const shards = 4
	rng := rand.New(rand.NewSource(7))

	router := cluster.MustOpen(cluster.Options{Shards: shards})
	defer router.Close()
	oracle := store.MustOpen(nil)
	defer oracle.Close()
	for _, ddl := range []interface{ CreateTable(string) error }{router, oracle} {
		if err := ddl.CreateTable("docs"); err != nil {
			t.Fatal(err)
		}
	}
	if err := router.CreateIndex("docs", "grp"); err != nil {
		t.Fatal(err)
	}
	if err := oracle.CreateIndex("docs", "grp"); err != nil {
		t.Fatal(err)
	}

	// One InvaliDB cell row per shard, placed by the same ShardMap that
	// routes writes; each pump asserts its shard's strictly increasing Seq.
	inv := invalidb.NewCluster(&invalidb.Config{
		QueryPartitions:  2,
		ObjectPartitions: shards,
		Placement:        router.Map().Shard,
	})
	defer inv.Stop()
	for _, st := range router.Stores() {
		defer inv.AttachStore(st)()
	}

	// Phase 1: quiesced equivalence over a random dataset.
	for i := 0; i < 400; i++ {
		doc := randDoc(rng, fmt.Sprintf("d%04d", i))
		if err := router.Insert("docs", doc.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Insert("docs", doc.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		q := genQuery(rng)
		want, err := oracle.ScanQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		got := scattered(t, router, q)
		if g, w := renderDocs(t, got), renderDocs(t, want); g != w {
			t.Fatalf("query %s diverged from single-node baseline:\n--- sharded ---\n%s--- single ---\n%s", q, g, w)
		}
	}

	// Phase 2: concurrent writers on disjoint key ranges apply identical
	// op sequences to the router and the oracle, while readers stream
	// scattered queries and check the merge invariant (output sorted by
	// q.Less) on every in-flight result.
	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 250; i++ {
				id := fmt.Sprintf("w%d-%d", w, wrng.Intn(80))
				switch wrng.Intn(4) {
				case 0, 1: // upsert
					doc := randDoc(wrng, id)
					if err := router.Put("docs", doc.Clone()); err != nil {
						t.Error(err)
						return
					}
					if err := oracle.Put("docs", doc.Clone()); err != nil {
						t.Error(err)
						return
					}
				case 2: // insert fresh
					fid := fmt.Sprintf("w%d-f%d", w, i)
					doc := randDoc(wrng, fid)
					if err := router.Insert("docs", doc.Clone()); err != nil {
						t.Error(err)
						return
					}
					if err := oracle.Insert("docs", doc.Clone()); err != nil {
						t.Error(err)
						return
					}
				case 3: // delete (both sides share the key's state)
					errR := router.Delete("docs", id)
					errO := oracle.Delete("docs", id)
					if (errR == nil) != (errO == nil) {
						t.Errorf("delete %s: router=%v oracle=%v", id, errR, errO)
						return
					}
				}
			}
		}(w)
	}
	var rdWg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rdWg.Add(1)
		go func(r int) {
			defer rdWg.Done()
			qrng := rand.New(rand.NewSource(int64(900 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := genQuery(qrng)
				docs := scattered(t, router, q)
				for i := 1; i < len(docs); i++ {
					if q.Less(docs[i], docs[i-1]) {
						t.Errorf("mid-storm stream for %s out of order at row %d", q, i)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	rdWg.Wait()

	// Phase 3: quiesced again — the storm must have left both sides
	// byte-identical under every query shape.
	for i := 0; i < 50; i++ {
		q := genQuery(rng)
		want, err := oracle.ScanQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		got := scattered(t, router, q)
		if g, w := renderDocs(t, got), renderDocs(t, want); g != w {
			t.Fatalf("post-storm query %s diverged:\n--- sharded ---\n%s--- single ---\n%s", q, g, w)
		}
	}
	if v := inv.OrderViolations(); v != 0 {
		t.Errorf("per-shard OrderViolations = %d, want 0", v)
	}
}
