// Streaming execution primitives: the pieces of the iterator-composed
// executor that are pure query logic — strategy selection, residual
// predicate pushdown and the bounded top-K heap. The storage layer wires
// them onto its tables and indexes (it owns the locks and the document
// pointers); everything here is independent of storage.
package query

import (
	"quaestor/internal/document"
)

// Execution strategies, recorded on Plan.Strategy and surfaced by Explain.
const (
	// StrategySortAll materializes every match and sorts the full set —
	// the only correct choice for an unlimited query that an index cannot
	// order.
	StrategySortAll = "sort-all"
	// StrategyTopK keeps only the best offset+limit candidates in a
	// bounded heap: O(n log k) comparisons and k retained documents
	// instead of a full sort.
	StrategyTopK = "top-k"
	// StrategyOrdered streams an ordered-index range scan that already
	// satisfies the ORDER BY, so no sort happens at all and the scan stops
	// after offset+limit matching rows.
	StrategyOrdered = "ordered"
)

// ChooseStrategy picks the emission strategy for q under plan. The ordered
// strategy is only sound when the plan is a range scan over exactly the
// single ORDER BY path: the index's value order then coincides with the
// query order (descending scans walk the index backwards, and ties on
// Compare-equal values break by id ascending in both).
func ChooseStrategy(q *Query, plan Plan) string {
	if plan.Kind == PlanRange && len(q.OrderBy) == 1 && q.OrderBy[0].Path == plan.Path {
		return StrategyOrdered
	}
	if q.Limit > 0 {
		return StrategyTopK
	}
	return StrategySortAll
}

// Residual strips from p the conjuncts the plan's index access already
// guarantees, so they are not re-evaluated per candidate document. It
// returns the remaining predicate (True when everything is implied) and how
// many conjuncts were elided.
//
// Soundness rests on documented index/model invariants: MatchKey equality
// coincides with Compare equality (a probe for a scalar or an empty array
// returns documents that deep-equal the probed value or contain it as an
// array element), and range scans visit only whole scalar values inside
// the plan window restricted to the window's type class. A probe for a
// non-empty array is only a superset: the index posts such an array under
// its elements, not whole, so the probe returns every document carrying
// the array's first element, and an $eq on a non-empty array, or an $in
// listing one, always stays in the residual. A conjunct is dropped only
// when every candidate provably satisfies it, so the elision is valid for
// index candidates only; a scan plan's residual is the whole predicate.
func Residual(p Predicate, plan Plan) (Predicate, int) {
	if plan.Kind == PlanScan || plan.Path == "" {
		return p, 0
	}
	out, n := residual(p, &plan)
	if out == nil {
		return True{}, n
	}
	return out, n
}

// residual walks the conjunctive skeleton of p (mirroring
// sargableConjuncts): only Field nodes reachable through Ands are
// candidates for elision. It returns nil when p is fully implied.
func residual(p Predicate, plan *Plan) (Predicate, int) {
	switch t := p.(type) {
	case *Field:
		if conjunctImplied(t, plan) {
			return nil, 1
		}
		return t, 0
	case *And:
		kept := make([]Predicate, 0, len(t.Children))
		elided := 0
		for _, c := range t.Children {
			r, n := residual(c, plan)
			elided += n
			if r != nil {
				kept = append(kept, r)
			}
		}
		if elided == 0 {
			return t, 0
		}
		switch len(kept) {
		case 0:
			return nil, elided
		case 1:
			return kept[0], elided
		default:
			return &And{Children: kept}, elided
		}
	}
	return p, 0
}

// conjunctImplied reports whether every index candidate for the plan
// necessarily satisfies f.
func conjunctImplied(f *Field, plan *Plan) bool {
	if f.Path != plan.Path {
		return false
	}
	switch plan.Kind {
	case PlanProbe:
		if f.Op != plan.Op {
			return false
		}
		switch f.Op {
		case OpContains:
			// Candidates carry the probed value as an array element —
			// exactly the operator's semantics.
			return len(plan.Values) == 1 && document.DeepEqual(f.Value, plan.Values[0])
		case OpEq:
			// Candidates deep-equal the probed value or carry it as an
			// array element, unless it is a non-empty array.
			return len(plan.Values) == 1 && !nonEmptyArray(f.Value) &&
				document.DeepEqual(f.Value, plan.Values[0])
		case OpIn:
			// Every candidate matched one of the probed values; the $in
			// holds iff the probed list is the conjunct's list and no value
			// is a non-empty array.
			list, _ := f.Value.([]any)
			if len(list) != len(plan.Values) {
				return false
			}
			for i := range list {
				if nonEmptyArray(list[i]) || !document.DeepEqual(list[i], plan.Values[i]) {
					return false
				}
			}
			return true
		}
		return false
	case PlanRange:
		switch f.Op {
		case OpGt, OpGte:
			return sameClassWindow(plan, f.Value) && loImplies(plan.Lo, f.Value, f.Op == OpGte)
		case OpLt, OpLte:
			return sameClassWindow(plan, f.Value) && hiImplies(plan.Hi, f.Value, f.Op == OpLte)
		case OpPrefix:
			// Strings with prefix s are exactly [s, prefixSuccessor(s)):
			// document.Compare orders strings byte-lexicographically, so a
			// string window inside that interval implies the prefix.
			s, ok := f.Value.(string)
			if !ok || !sameClassWindow(plan, s) {
				return false
			}
			if !loImplies(plan.Lo, s, true) {
				return false
			}
			succ, bounded := prefixSuccessor(s)
			return !bounded || hiImplies(plan.Hi, succ, false)
		}
	}
	return false
}

// nonEmptyArray reports whether v is an array with elements: the index
// answers an equality probe for one with a superset (see Residual).
func nonEmptyArray(v any) bool {
	arr, ok := v.([]any)
	return ok && len(arr) > 0
}

// sameClassWindow reports whether the plan window's type class (the class
// its candidates are restricted to) matches v's class, making Compare
// against v meaningful for every candidate.
func sameClassWindow(plan *Plan, v any) bool {
	ref := plan.Lo.Value
	if plan.Lo.Unbounded {
		ref = plan.Hi.Value
	}
	return comparableTypes(ref, v)
}

// loImplies reports whether the window's lower bound guarantees the
// conjunct "x ≥ v" (inclusive) or "x > v": every candidate is at or above
// lo, so the window bound must sit at or above the conjunct's.
func loImplies(lo Bound, v any, inclusive bool) bool {
	if lo.Unbounded || !comparableTypes(lo.Value, v) {
		return false
	}
	c := document.Compare(lo.Value, v)
	if inclusive || !lo.Inclusive {
		return c >= 0
	}
	// Exclusive conjunct, inclusive window: lo itself is a candidate and
	// must exceed v strictly.
	return c > 0
}

// hiImplies mirrors loImplies for "x ≤ v" / "x < v".
func hiImplies(hi Bound, v any, inclusive bool) bool {
	if hi.Unbounded || !comparableTypes(hi.Value, v) {
		return false
	}
	c := document.Compare(hi.Value, v)
	if inclusive || !hi.Inclusive {
		return c <= 0
	}
	return c < 0
}

// topKSeedCap bounds the heap's initial allocation: offset+limit can be
// arbitrarily large, and the heap should start small and grow only if the
// result set actually does.
const topKSeedCap = 1024

// TopK is a bounded selection heap for ORDER BY + LIMIT execution: Offer
// every match, then Sorted returns the k smallest (per the query's Less)
// in query order. It retains at most k document pointers and never clones,
// so a LIMIT 10 over 100k matches keeps 10 pointers instead of 100k deep
// copies, and it reads each offered document's sort keys once. Internally
// it is a max-heap: the root is the worst survivor, the one a better
// candidate evicts in O(log k).
type TopK struct {
	rows    sortRows // the survivors and their sort keys
	k       int
	offered []any // the sort keys of the document being offered
}

// NewTopK builds a heap retaining the best k documents for q. k must be
// positive.
func NewTopK(q *Query, k int) *TopK {
	seed := k
	if seed > topKSeedCap {
		seed = topKSeedCap
	}
	n := len(q.OrderBy)
	return &TopK{
		rows: sortRows{q: q, n: n, docs: make([]*document.Document, 0, seed), keys: make([]any, 0, n*seed)},
		k:    k,
	}
}

// Len returns the number of retained documents.
func (t *TopK) Len() int { return len(t.rows.docs) }

// Worst returns the current worst survivor (the next to be evicted), or
// nil while the heap is not yet full.
func (t *TopK) Worst() *document.Document {
	if len(t.rows.docs) < t.k {
		return nil
	}
	return t.rows.docs[0]
}

// Offer considers one candidate, keeping it only if it beats the current
// worst survivor of a full heap.
func (t *TopK) Offer(d *document.Document) {
	r := &t.rows
	if len(r.docs) < t.k {
		r.docs = append(r.docs, d)
		r.keys = r.q.appendSortKeys(r.keys, d)
		t.up(len(r.docs) - 1)
		return
	}
	t.offered = r.q.appendSortKeys(t.offered[:0], d)
	if r.q.lessKeys(d, t.offered, r.docs[0], r.row(0)) {
		r.docs[0] = d
		copy(r.row(0), t.offered)
		t.down(0, len(r.docs))
	}
}

// Sorted drains the heap and returns the survivors in query order
// (ascending by q.Less). The heap is consumed: an in-place heapsort
// repeatedly swaps the worst remaining element to the tail.
func (t *TopK) Sorted() []*document.Document {
	h := t.rows.docs
	for n := len(h) - 1; n > 0; n-- {
		t.rows.Swap(0, n)
		t.down(0, n)
	}
	t.rows = sortRows{}
	return h
}

func (t *TopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.rows.Less(parent, i) {
			return
		}
		t.rows.Swap(parent, i)
		i = parent
	}
}

func (t *TopK) down(i, n int) {
	for {
		worst := i
		if l := 2*i + 1; l < n && t.rows.Less(worst, l) {
			worst = l
		}
		if r := 2*i + 2; r < n && t.rows.Less(worst, r) {
			worst = r
		}
		if worst == i {
			return
		}
		t.rows.Swap(i, worst)
		i = worst
	}
}
