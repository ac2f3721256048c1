package cluster_test

// Sharded write-path benchmark: parallel workers through the router at
// 1 vs 4 shards over a preloaded corpus, under three mixes. The per-shard
// commit pipelines are the whole point of the subsystem, so this is the
// smoke CI runs to catch a sharded write path that stops scaling (or
// stops working).

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"quaestor/internal/cluster"
	"quaestor/internal/document"
	"quaestor/internal/query"
)

// shardedBenchDocs is the corpus preloaded into every topology; workers
// upsert, read and query over this keyspace, so every op hits live data.
const shardedBenchDocs = 20_000

// BenchmarkShardedWrite runs each mix at 1 and 4 shards: "write" is pure
// upsert pressure on the commit pipelines, "mixed" adds half point reads
// sharing the shard locks, and "write+query" puts a scatter-gather top-10
// query in one op of ten. A read of a preloaded id that misses fails the
// benchmark: nothing deletes them.
func BenchmarkShardedWrite(b *testing.B) {
	mixes := []struct {
		name     string
		writePct int
		queryPct int // the remainder are point reads
	}{
		{"write", 100, 0},
		{"mixed", 50, 0},
		{"write+query", 90, 10},
	}
	for _, shards := range []int{1, 4} {
		r := shardedBenchRouter(b, shards)
		for _, mix := range mixes {
			b.Run(fmt.Sprintf("shards=%d/%s", shards, mix.name), func(b *testing.B) {
				var seed int64
				b.SetParallelism(4)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(atomic.AddInt64(&seed, 1)))
					for pb.Next() {
						if err := shardedBenchOp(r, rng, mix.writePct, mix.queryPct); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// shardedBenchRouter opens an in-memory cluster of the given width and
// preloads the corpus: a sequential, indexed rank and 16 groups.
func shardedBenchRouter(b *testing.B, shards int) *cluster.Router {
	b.Helper()
	r := cluster.MustOpen(cluster.Options{Shards: shards})
	b.Cleanup(r.Close)
	if err := r.CreateTable("docs"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < shardedBenchDocs; i++ {
		doc := document.New(fmt.Sprintf("k%06d", i), map[string]any{
			"rank": int64(i),
			"grp":  fmt.Sprintf("g%02d", i%16),
		})
		if err := r.Insert("docs", doc); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.CreateIndex("docs", "rank"); err != nil {
		b.Fatal(err)
	}
	return r
}

// shardedBenchOp runs one op of the mix on a random preloaded key.
func shardedBenchOp(r *cluster.Router, rng *rand.Rand, writePct, queryPct int) error {
	id := fmt.Sprintf("k%06d", rng.Intn(shardedBenchDocs))
	switch p := rng.Intn(100); {
	case p < writePct:
		return r.Put("docs", document.New(id, map[string]any{
			"rank": int64(rng.Intn(shardedBenchDocs)),
			"grp":  fmt.Sprintf("g%02d", rng.Intn(16)),
		}))
	case p < writePct+queryPct:
		q := query.New("docs", query.Gte("rank", int64(rng.Intn(shardedBenchDocs)))).
			Sorted(query.Desc("rank")).Sliced(0, 10)
		_, _, err := r.QueryPlanned(q)
		return err
	default:
		_, err := r.Get("docs", id)
		return err
	}
}
