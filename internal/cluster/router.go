package cluster

import (
	"fmt"
	"path/filepath"
	"sync"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/store"
)

// Options configures a Router.
type Options struct {
	// Shards is the number of shard nodes (minimum 1).
	Shards int
	// Store is the per-shard store template. DataDir, when set, is the
	// cluster root: shard i opens DataDir/shard-i with its own WAL and
	// snapshot lineage.
	Store store.Options
}

// Router owns the shard nodes of a single-process multi-shard cluster and
// routes every operation: point ops to the owning shard's commit
// pipeline, DDL to all shards, queries scatter-gather through the ordered
// merge. The interface deliberately mirrors store.Store; a multi-process
// router would keep the same surface and swap the in-process store calls
// for shard-node RPCs.
type Router struct {
	smap   *ShardMap
	stores []*store.Store
	// borrowed marks stores the caller opened (Wrap): Close leaves them.
	borrowed bool
}

// Open opens (or recovers) every shard store. On error, already-opened
// shards are closed.
func Open(opts Options) (*Router, error) {
	n := opts.Shards
	if n < 1 {
		n = 1
	}
	r := &Router{smap: NewShardMap(n)}
	for i := 0; i < n; i++ {
		so := opts.Store
		if so.DataDir != "" {
			so.DataDir = filepath.Join(so.DataDir, fmt.Sprintf("shard-%d", i))
		}
		st, err := store.Open(&so)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("cluster: opening shard %d: %w", i, err)
		}
		r.stores = append(r.stores, st)
	}
	return r, nil
}

// Wrap fronts a store the caller opened and keeps owning as a 1-shard
// router; Close does not close it.
func Wrap(st *store.Store) *Router {
	return &Router{smap: NewShardMap(1), stores: []*store.Store{st}, borrowed: true}
}

// MustOpen is Open for tests and in-memory setups; panics on error.
func MustOpen(opts Options) *Router {
	r, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return r
}

// Close closes every shard store the router opened.
func (r *Router) Close() {
	if r.borrowed {
		return
	}
	for _, st := range r.stores {
		if st != nil {
			st.Close()
		}
	}
}

// Map returns the cluster's shard map.
func (r *Router) Map() *ShardMap { return r.smap }

// NumShards returns the shard count.
func (r *Router) NumShards() int { return len(r.stores) }

// ShardFor returns the shard owning a document id.
func (r *Router) ShardFor(id string) int { return r.smap.Shard(id) }

// Store returns shard i's store (replication endpoints and tests need
// direct access).
func (r *Router) Store(i int) *store.Store { return r.stores[i] }

// Stores returns all shard stores in shard order.
func (r *Router) Stores() []*store.Store { return r.stores }

// StoreFor routes a document id to its owning shard's store.
func (r *Router) StoreFor(id string) *store.Store {
	return r.stores[r.smap.Shard(id)]
}

// CreateTable creates the table on every shard (DDL fans out).
func (r *Router) CreateTable(name string) error {
	for _, st := range r.stores {
		if err := st.CreateTable(name); err != nil {
			return err
		}
	}
	return nil
}

// CreateIndex creates the index on every shard. Each shard sequences the
// DDL through its own commit pipeline, so per-shard replicas learn it
// live.
func (r *Router) CreateIndex(table, path string) error {
	for _, st := range r.stores {
		if err := st.CreateIndex(table, path); err != nil {
			return err
		}
	}
	return nil
}

// Tables returns the table names (identical on every shard; shard 0
// answers).
func (r *Router) Tables() []string { return r.stores[0].Tables() }

// Indexes returns a table's indexed paths (identical on every shard).
func (r *Router) Indexes(table string) ([]string, error) { return r.stores[0].Indexes(table) }

// Insert routes the document to its owning shard's commit pipeline.
func (r *Router) Insert(table string, doc *document.Document) error {
	return r.StoreFor(doc.ID).Insert(table, doc)
}

// Put routes the document to its owning shard.
func (r *Router) Put(table string, doc *document.Document) error {
	return r.StoreFor(doc.ID).Put(table, doc)
}

// Update routes the partial update to the owning shard.
func (r *Router) Update(table, id string, spec store.UpdateSpec) (*document.Document, error) {
	return r.StoreFor(id).Update(table, id, spec)
}

// Delete routes the delete to the owning shard.
func (r *Router) Delete(table, id string) error {
	return r.StoreFor(id).Delete(table, id)
}

// Apply commits writes as one unit per shard: each shard's writes, in
// their order, through that shard's Store.Apply, which sets their After.
// Shards commit one after another, so a unit is atomic within its shard
// only: when a later shard refuses its unit, the earlier shards' units
// stay committed. Whatever Apply returns, a write's After is non-nil
// exactly when readers can see it (Write.After), so a caller that gets
// an error still knows which writes to invalidate.
func (r *Router) Apply(writes []store.Write) error {
	if len(r.stores) == 1 {
		return r.stores[0].Apply(writes)
	}
	units := make([][]store.Write, len(r.stores))
	from := make([][]int, len(r.stores)) // from[i][j]: units[i][j]'s index in writes
	for i := range writes {
		sh := r.smap.Shard(writes[i].ID)
		units[sh] = append(units[sh], writes[i])
		from[sh] = append(from[sh], i)
	}
	for sh, unit := range units {
		if len(unit) == 0 {
			continue
		}
		err := r.stores[sh].Apply(unit)
		for j := range unit {
			writes[from[sh][j]].After = unit[j].After
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Get reads the document directly from its owning shard.
func (r *Router) Get(table, id string) (*document.Document, error) {
	return r.StoreFor(id).Get(table, id)
}

// Count sums the table's document count across shards.
func (r *Router) Count(table string) (int, error) {
	total := 0
	for _, st := range r.stores {
		n, err := st.Count(table)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// LastSeqs returns every shard's newest assigned sequence, in shard
// order. Shard sequence spaces are independent — cross-shard positions
// are vectors, never a single number.
func (r *Router) LastSeqs() []uint64 {
	seqs := make([]uint64, len(r.stores))
	for i, st := range r.stores {
		seqs[i] = st.LastSeq()
	}
	return seqs
}

// QueryPlanned scatters q to every shard and gathers through the ordered
// k-way merge, returning the stored documents, read-only, plus the
// aggregated cluster-level plan. Each shard executes a sub-query window
// — per-shard early termination — and emits in q.Less order (the
// executor's contract), so the merge plus the residual global
// OFFSET/LIMIT window reproduces a single node's result byte for byte.
// The returned plan aggregates per-shard execution stats.
//
// OFFSET pushdown: with per-shard table counts c_i, shard i must place at
// least p_i = max(0, offset − Σ_{j≠i} c_j) of its rows inside the global
// skip region — even if every other shard's rows all sorted first, shard
// i still covers the remainder. Those p_i leading rows are skipped
// shard-side (sub-query offset), the fetch window shrinks to
// offset+limit−p_i, and the merge applies only the residual offset
// offset−Σp_i. Counts are a point-in-time snapshot: under concurrent
// writes the window may shift by in-flight rows, the same non-snapshot
// anomaly the scatter already has (shards execute at different instants);
// order and duplicate-freedom are unaffected.
func (r *Router) QueryPlanned(q *query.Query) ([]*document.Document, query.Plan, error) {
	if len(r.stores) == 1 {
		return r.stores[0].QueryPlanned(q)
	}
	subs := make([]*query.Query, len(r.stores))
	merge := q
	pruned := 0
	if q.Offset > 0 {
		if counts, total, err := r.shardCounts(q.Table); err == nil {
			for i := range r.stores {
				p := q.Offset - (total - counts[i])
				if p < 0 {
					p = 0
				}
				if p > counts[i] {
					p = counts[i]
				}
				pruned += p
				if q.Limit > 0 {
					subs[i] = q.Sliced(p, q.Offset+q.Limit-p)
				} else {
					subs[i] = q.Sliced(p, 0)
				}
			}
			merge = q.Sliced(q.Offset-pruned, q.Limit)
		} else {
			// No count statistics: every shard produces the full
			// [0, offset+limit) window — any of them could hold it all.
			sub := q.Sliced(0, subLimit(q))
			for i := range subs {
				subs[i] = sub
			}
		}
	} else {
		for i := range subs {
			subs[i] = q
		}
	}
	lists := make([][]*document.Document, len(r.stores))
	plans := make([]query.Plan, len(r.stores))
	errs := make([]error, len(r.stores))
	var wg sync.WaitGroup
	for i, st := range r.stores {
		wg.Add(1)
		go func(i int, st *store.Store) {
			defer wg.Done()
			lists[i], plans[i], errs[i] = st.QueryPlanned(subs[i])
		}(i, st)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, query.Plan{}, err
		}
	}
	merged := store.MergeOrdered(merge, lists)
	plan := plans[0]
	for _, p := range plans[1:] {
		plan.RowsExamined += p.RowsExamined
	}
	plan.RowsReturned = len(merged)
	plan.Reason = fmt.Sprintf("scatter-gather over %d shards; per-shard: %s", len(r.stores), plan.Reason)
	if pruned > 0 {
		plan.Reason += fmt.Sprintf("; offset pushdown skipped %d rows shard-side", pruned)
	}
	return merged, plan, nil
}

// shardCounts returns every shard's table count plus the total — the
// statistics the OFFSET pushdown slices per-shard windows from.
func (r *Router) shardCounts(table string) ([]int, int, error) {
	counts := make([]int, len(r.stores))
	total := 0
	for i, st := range r.stores {
		n, err := st.Count(table)
		if err != nil {
			return nil, 0, err
		}
		counts[i] = n
		total += n
	}
	return counts, total, nil
}

// subLimit is the per-shard window for a scattered query: offset+limit
// rows when the query is bounded, unbounded otherwise.
func subLimit(q *query.Query) int {
	if q.Limit <= 0 {
		return 0
	}
	return q.Offset + q.Limit
}

// Query scatters q and returns the stored documents, read-only.
func (r *Router) Query(q *query.Query) ([]*document.Document, error) {
	docs, _, err := r.QueryPlanned(q)
	return docs, err
}

// Explain plans q on shard 0 and annotates the scatter. Placement is
// identical across shards (same tables, same indexes), so one shard's
// plan speaks for all.
func (r *Router) Explain(q *query.Query) (query.Plan, error) {
	plan, err := r.stores[0].Explain(q)
	if err != nil {
		return plan, err
	}
	if len(r.stores) > 1 {
		plan.Reason = fmt.Sprintf("scatter-gather over %d shards; per-shard: %s", len(r.stores), plan.Reason)
	}
	return plan, nil
}
