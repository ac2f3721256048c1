// Streaming query execution: the store-side iterator executor behind
// QueryPlanned and QueryStream. Source iterators (index probe, ordered
// range scan, table scan) feed one of three emission strategies — full
// sort, bounded top-K, or an ordered index walk — chosen by the query
// layer (query.ChooseStrategy). Conjuncts the index access already
// guarantees are elided from the per-document predicate
// (query.Residual).
//
// The executor collects stored document POINTERS, not clones: stored
// documents are copy-on-write (writers replace, never mutate, them — see
// replication.go), so pointers gathered under the table's read lock stay
// internally immutable after the lock is released. Cloning happens only
// at emission (Cursor.Next), and only for the offset+limit window — a
// LIMIT 10 over 100k matches clones 10 documents where the materializing
// baseline cloned and sorted 100k.
package store

import (
	"sort"

	"quaestor/internal/document"
	"quaestor/internal/query"
)

// Cursor streams one query's results. It holds shared stored-document
// pointers; Next clones at emission, NextShared hands the shared pointer
// out directly for read-only consumers (the NDJSON encoder) that promise
// not to mutate it.
type Cursor struct {
	plan query.Plan
	docs []*document.Document
	pos  int
}

// Plan returns the executed access plan, including the execution report
// (strategy, residual elisions, rows examined/returned).
func (c *Cursor) Plan() query.Plan { return c.plan }

// Remaining returns how many documents are left to emit.
func (c *Cursor) Remaining() int { return len(c.docs) - c.pos }

// Next emits the next document as an independent deep copy.
func (c *Cursor) Next() (*document.Document, bool) {
	d, ok := c.NextShared()
	if !ok {
		return nil, false
	}
	return d.Clone(), true
}

// NextShared emits the next document without cloning. The returned
// document is shared store state under the copy-on-write contract: it must
// be treated as immutable.
func (c *Cursor) NextShared() (*document.Document, bool) {
	if c.pos >= len(c.docs) {
		return nil, false
	}
	d := c.docs[c.pos]
	c.pos++
	return d, true
}

// NewCursor wraps an already-computed result window and its plan in a
// cursor. The cross-shard gather path (internal/cluster) merges per-shard
// cursors and re-wraps the merged window; the documents follow the same
// copy-on-write contract as store-produced cursors.
func NewCursor(plan query.Plan, docs []*document.Document) *Cursor {
	return &Cursor{plan: plan, docs: docs}
}

// QueryStream plans and executes q, returning a cursor over the result
// window. Planning and execution share one read lock of the table, so the
// index the plan names is there and exactly consistent with the
// documents; the cursor itself is lock-free and single-consumer.
func (s *Store) QueryStream(q *query.Query) (*Cursor, error) {
	t, err := s.table(q.Table)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	plan, residual := t.plan(q)
	e := &executor{t: t, q: q, residual: residual, plan: &plan}
	switch plan.Strategy {
	case query.StrategyOrdered:
		e.runOrdered()
	case query.StrategyTopK:
		e.runTopK()
	default:
		e.runSortAll()
	}
	t.mu.RUnlock()
	plan.RowsExamined = e.examined
	plan.RowsReturned = len(e.out)
	return &Cursor{plan: plan, docs: e.out}, nil
}

// executor carries one execution's state. Its methods run under t.mu's
// read lock.
type executor struct {
	t        *table
	q        *query.Query
	residual query.Predicate
	plan     *query.Plan
	examined int
	out      []*document.Document
}

// runSortAll materializes every matching pointer and sorts the full set —
// the strategy of last resort, still pointer-level (no clones).
func (e *executor) runSortAll() {
	var matches []*document.Document
	e.visit(func(d *document.Document) bool {
		matches = append(matches, d)
		return true
	})
	q := e.q
	sort.Slice(matches, func(i, j int) bool { return q.Less(matches[i], matches[j]) })
	e.out = resultWindow(matches, q.Offset, q.Limit)
}

// runTopK pushes every match through a bounded heap retaining only the
// best offset+limit candidates: O(n log k) instead of a full sort, and at
// most k pointers held.
func (e *executor) runTopK() {
	q := e.q
	top := query.NewTopK(q, q.Offset+q.Limit)
	e.visit(func(d *document.Document) bool {
		top.Offer(d)
		return true
	})
	e.out = resultWindow(top.Sorted(), q.Offset, q.Limit)
}

// runOrdered exploits a range plan whose index order IS the query order:
// the index walk (backwards for descending sorts) yields candidates
// already in query order, and stops once offset+limit rows matched —
// no sort at all.
func (e *executor) runOrdered() {
	q := e.q
	k := 0 // row cap; 0 = unbounded (no LIMIT)
	if q.Limit > 0 {
		k = q.Offset + q.Limit
	}
	var list []*document.Document
	ix := e.t.indexes[e.plan.Path]
	ix.RangeRuns(toIndexBound(e.plan.Lo), toIndexBound(e.plan.Hi), q.OrderBy[0].Desc, func(ids []string) bool {
		for _, id := range ids {
			d := e.t.docs[id]
			e.examined++
			if e.residual.Matches(d.Fields) {
				list = append(list, d)
				if k > 0 && len(list) == k {
					// Early termination: everything later in the scan
					// sorts after these k rows.
					return false
				}
			}
		}
		return true
	})
	e.out = resultWindow(list, q.Offset, q.Limit)
}

// visit streams the plan's candidate documents that pass the residual
// predicate through yield (stop by returning false). For a scan plan the
// residual is the whole predicate.
func (e *executor) visit(yield func(*document.Document) bool) {
	t, plan := e.t, e.plan
	if plan.Kind == query.PlanScan {
		for _, d := range t.docs {
			e.examined++
			if e.residual.Matches(d.Fields) && !yield(d) {
				return
			}
		}
		return
	}
	ix := t.indexes[plan.Path]
	emitID := func(id string) bool {
		d := t.docs[id]
		e.examined++
		return !e.residual.Matches(d.Fields) || yield(d)
	}
	emit := func(ids []string) bool {
		for _, id := range ids {
			if !emitID(id) {
				return false
			}
		}
		return true
	}
	switch plan.Kind {
	case query.PlanProbe:
		if plan.Op == query.OpContains {
			emit(ix.ProbeContains(plan.Values[0]))
			return
		}
		if len(plan.Values) == 1 {
			// A single-value probe is already duplicate-free.
			emit(ix.ProbeEq(plan.Values[0]))
			return
		}
		// Multi-value $in: one document can match several probed values.
		// Collect the posting lists first so the dedup set is pre-sized to
		// the exact candidate count instead of growing incrementally.
		lists := make([][]string, len(plan.Values))
		total := 0
		for i, v := range plan.Values {
			lists[i] = ix.ProbeEq(v)
			total += len(lists[i])
		}
		seen := make(map[string]struct{}, total)
		for _, ids := range lists {
			for _, id := range ids {
				if _, dup := seen[id]; dup {
					continue
				}
				seen[id] = struct{}{}
				if !emitID(id) {
					return
				}
			}
		}
	case query.PlanRange:
		emit(ix.RangeScan(toIndexBound(plan.Lo), toIndexBound(plan.Hi)))
	}
}

// resultWindow applies OFFSET/LIMIT to an ordered result, returning nil
// for an empty window.
func resultWindow(docs []*document.Document, offset, limit int) []*document.Document {
	if offset > 0 {
		if offset >= len(docs) {
			return nil
		}
		docs = docs[offset:]
	}
	if limit > 0 && len(docs) > limit {
		docs = docs[:limit]
	}
	if len(docs) == 0 {
		return nil
	}
	return docs
}

// MergeOrdered merges per-source lists that are each sorted by q.Less
// into the query's global OFFSET/LIMIT window — the cross-shard gather
// path (internal/cluster) merging per-shard cursor outputs. With one list
// per shard a linear min-pick beats a heap.
func MergeOrdered(q *query.Query, lists [][]*document.Document) []*document.Document {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if q.Offset >= total {
		return nil
	}
	n := total - q.Offset
	if q.Limit > 0 && n > q.Limit {
		n = q.Limit
	}
	out := make([]*document.Document, 0, n)
	heads := make([]int, len(lists))
	for skipped := 0; len(out) < n; {
		best := -1
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if best < 0 || q.Less(l[heads[i]], lists[best][heads[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		d := lists[best][heads[best]]
		heads[best]++
		if skipped < q.Offset {
			skipped++
			continue
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
