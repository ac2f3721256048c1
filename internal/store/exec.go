// Query execution: the store-side iterator executor behind QueryPlanned,
// the store's one evaluation. Source iterators (index probe, ordered
// range scan, table scan) feed one of three emission strategies — full
// sort, bounded top-K, or an ordered index walk — chosen by the query
// layer (query.ChooseStrategy). Conjuncts the index access already
// guarantees are elided from the per-document predicate
// (query.Residual).
//
// The executor collects stored document pointers, never copies, and
// QueryPlanned hands its result window back as is: under
// document.Document's ownership rule the documents are read-only, so
// pointers gathered under the table's read lock stay valid after the
// lock is released. A LIMIT 10 over 100k matches touches 10 documents
// where the materializing baseline cloned and sorted 100k.
package store

import (
	"slices"

	"quaestor/internal/document"
	"quaestor/internal/query"
)

// QueryPlanned evaluates q and returns the matching stored documents,
// read-only, in the query's order, plus the access plan the planner chose
// with its execution report (strategy, residual pushdown, rows
// examined/returned), so callers can attribute latency to plan kinds.
// Planning and execution share one read lock of the table, so the index
// the plan names is there and exactly consistent with the documents. The
// read lock is released by defer, so a panicking execution cannot leave
// the table locked against every later write. The result is the
// executor's own window, capped (cap == len) so that a caller's append
// never writes into the executor's backing array; an empty window is nil.
func (s *Store) QueryPlanned(q *query.Query) ([]*document.Document, query.Plan, error) {
	t, err := s.table(q.Table)
	if err != nil {
		return nil, query.Plan{}, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
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
	plan.RowsExamined = e.examined
	plan.RowsReturned = len(e.out)
	return slices.Clip(e.out), plan, nil
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
	q.Sort(matches)
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
			if e.residual.Matches(d) {
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
			if e.residual.Matches(d) && !yield(d) {
				return
			}
		}
		return
	}
	ix := t.indexes[plan.Path]
	emitID := func(id string) bool {
		d := t.docs[id]
		e.examined++
		return !e.residual.Matches(d) || yield(d)
	}
	// A top-K execution walks a list from the end whose document sorts
	// first. Posting lists are in insertion order, which often follows the
	// sort key; offered worst-first, the heap would replace its root on
	// every candidate.
	topK := plan.Strategy == query.StrategyTopK
	emit := func(ids []string) bool {
		if topK && len(ids) > 1 && e.q.Less(t.docs[ids[len(ids)-1]], t.docs[ids[0]]) {
			for i := len(ids) - 1; i >= 0; i-- {
				if !emitID(ids[i]) {
					return false
				}
			}
			return true
		}
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
// path (internal/cluster) merging per-shard result windows. With one list
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
