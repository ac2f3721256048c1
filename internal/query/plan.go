// Query planning: the planner inspects a parsed predicate, consults index
// statistics supplied by the storage layer through the Catalog interface,
// and emits an access plan — index probe, index range scan, or fallback
// full scan. Estimates are deliberately heuristic (uniform buckets from
// distinct counts, fixed range-selectivity fractions): simple estimators
// remain competitive with learned cardinality models for this class of
// workload, and they cost nothing to maintain.
//
// Plans are advisory supersets: the executor re-verifies every candidate
// against the full predicate, so a plan can never change query results —
// only how many documents are touched to produce them.
package query

import (
	"fmt"
	"strings"

	"quaestor/internal/document"
)

// PlanKind identifies the chosen access path.
type PlanKind int

const (
	// PlanScan is the fallback full table scan.
	PlanScan PlanKind = iota
	// PlanProbe is a hash-index equality probe ($eq, $in, $contains).
	PlanProbe
	// PlanRange is an ordered-index range scan ($gt/$gte/$lt/$lte,
	// $prefix).
	PlanRange
)

// String implements fmt.Stringer.
func (k PlanKind) String() string {
	switch k {
	case PlanProbe:
		return "probe"
	case PlanRange:
		return "range"
	default:
		return "scan"
	}
}

// Bound is one end of a planned range scan. The storage layer translates
// it to its index's bound representation.
type Bound struct {
	Value     any
	Inclusive bool
	Unbounded bool
}

// Plan is the planner's chosen access path for one query.
type Plan struct {
	Kind PlanKind
	// Path is the indexed field path driving the access ("" for scans).
	Path string
	// Op is the operator the probe serves (OpEq, OpIn or OpContains);
	// unset for ranges and scans.
	Op Op
	// Values holds the probe values: one for $eq/$contains, all listed
	// values for $in.
	Values []any
	// Lo and Hi bound a PlanRange.
	Lo, Hi Bound
	// EstimatedRows is the planner's cardinality estimate for the access
	// path (the table size for scans).
	EstimatedRows int
	// Reason explains the decision, EXPLAIN-style.
	Reason string

	// Execution report, filled by the streaming executor (and by Explain
	// for the strategy/elision fields, which are static properties of the
	// plan): the emission strategy chosen (StrategySortAll, StrategyTopK
	// or StrategyOrdered), how many predicate conjuncts the index access
	// already guarantees (residual pushdown), and the measured
	// examined/returned row counts of one execution.
	Strategy        string
	ElidedConjuncts int
	RowsExamined    int
	RowsReturned    int
}

// IndexStats are the per-index statistics the planner consumes.
type IndexStats struct {
	// Docs is the number of documents with the indexed field present.
	Docs int
	// Distinct is the number of distinct indexed values.
	Distinct int
}

// Catalog is the planner's view of a table's indexes. The storage layer
// implements it and calls BuildPlan with the table's lock already held;
// the planner stays free of storage dependencies.
type Catalog interface {
	// IndexStats returns statistics for the index on a field path, with
	// ok=false when the path is not indexed.
	IndexStats(path string) (stats IndexStats, ok bool)
	// TableDocs returns the table's total document count, the cost
	// baseline a full scan pays.
	TableDocs() int
}

// Range-selectivity fractions used when only bucket statistics are
// available (the classic System-R style constants).
const (
	halfOpenSelectivity = 1.0 / 3
	closedSelectivity   = 1.0 / 4
	prefixSelectivity   = 1.0 / 10
)

// BuildPlan chooses an access path for q given the catalog's indexes. A
// nil catalog or an unsargable predicate yields a full scan.
func BuildPlan(q *Query, cat Catalog) Plan {
	total := 0
	if cat != nil {
		total = cat.TableDocs()
	}
	scan := Plan{Kind: PlanScan, EstimatedRows: total, Reason: "no usable index"}
	if cat == nil {
		scan.Reason = "no catalog"
		return scan
	}
	// An index access must beat the scan estimate strictly: probing pays
	// per-id overhead a sequential scan does not, so an index expected to
	// touch the whole table (e.g. on a constant field) is worse than
	// scanning it.
	best := scan
	for _, f := range sargableConjuncts(q.Predicate, nil) {
		st, ok := cat.IndexStats(f.Path)
		if !ok {
			continue
		}
		p, ok := planForConjunct(f, st)
		if !ok {
			continue
		}
		if p.EstimatedRows < best.EstimatedRows {
			best = p
		}
	}
	if best.Kind == PlanRange {
		tightenRange(&best, q.Predicate)
	}
	return best
}

// sargableConjuncts collects the Field predicates that must all hold for
// the whole predicate to hold: field nodes reachable through conjunctions
// only. Any of them is a sound candidate driver for an index access.
func sargableConjuncts(p Predicate, out []*Field) []*Field {
	switch t := p.(type) {
	case *Field:
		out = append(out, t)
	case *And:
		for _, c := range t.Children {
			out = sargableConjuncts(c, out)
		}
	}
	return out
}

// bucket estimates the average ids per distinct value.
func bucket(st IndexStats) int {
	if st.Distinct == 0 {
		return 0
	}
	n := st.Docs / st.Distinct
	if n < 1 {
		n = 1
	}
	return n
}

func planForConjunct(f *Field, st IndexStats) (Plan, bool) {
	switch f.Op {
	case OpEq, OpContains:
		return Plan{
			Kind:          PlanProbe,
			Path:          f.Path,
			Op:            f.Op,
			Values:        []any{f.Value},
			EstimatedRows: bucket(st),
			Reason:        fmt.Sprintf("probe %s on %q (≈%d/%d per value)", f.Op, f.Path, st.Docs, st.Distinct),
		}, true
	case OpIn:
		list, _ := f.Value.([]any)
		return Plan{
			Kind:          PlanProbe,
			Path:          f.Path,
			Op:            OpIn,
			Values:        append([]any(nil), list...),
			EstimatedRows: len(list) * bucket(st),
			Reason:        fmt.Sprintf("probe $in on %q (%d values)", f.Path, len(list)),
		}, true
	case OpGt, OpGte:
		return Plan{
			Kind:          PlanRange,
			Path:          f.Path,
			Lo:            Bound{Value: f.Value, Inclusive: f.Op == OpGte},
			Hi:            Bound{Unbounded: true},
			EstimatedRows: int(float64(st.Docs) * halfOpenSelectivity),
			Reason:        fmt.Sprintf("range %s on %q", f.Op, f.Path),
		}, true
	case OpLt, OpLte:
		return Plan{
			Kind:          PlanRange,
			Path:          f.Path,
			Lo:            Bound{Unbounded: true},
			Hi:            Bound{Value: f.Value, Inclusive: f.Op == OpLte},
			EstimatedRows: int(float64(st.Docs) * halfOpenSelectivity),
			Reason:        fmt.Sprintf("range %s on %q", f.Op, f.Path),
		}, true
	case OpPrefix:
		s, ok := f.Value.(string)
		if !ok {
			return Plan{}, false
		}
		hi := Bound{Unbounded: true}
		if succ, ok := prefixSuccessor(s); ok {
			hi = Bound{Value: succ}
		}
		return Plan{
			Kind:          PlanRange,
			Path:          f.Path,
			Lo:            Bound{Value: s, Inclusive: true},
			Hi:            hi,
			EstimatedRows: int(float64(st.Docs) * prefixSelectivity),
			Reason:        fmt.Sprintf("prefix range on %q", f.Path),
		}, true
	}
	return Plan{}, false
}

// tightenRange merges every other range conjunct on the plan's path into
// the plan's interval, so {age:{$gt:30,$lt:50}} scans one closed window
// instead of a half-open one.
func tightenRange(p *Plan, pred Predicate) {
	changed := false
	for _, f := range sargableConjuncts(pred, nil) {
		if f.Path != p.Path {
			continue
		}
		switch f.Op {
		case OpGt, OpGte:
			// The plan's own source conjunct never reports tighter than
			// itself, so `changed` only reflects genuine narrowing.
			b := Bound{Value: f.Value, Inclusive: f.Op == OpGte}
			if tighterLo(p.Lo, b) {
				p.Lo = b
				changed = true
			}
		case OpLt, OpLte:
			b := Bound{Value: f.Value, Inclusive: f.Op == OpLte}
			if tighterHi(p.Hi, b) {
				p.Hi = b
				changed = true
			}
		}
	}
	// Only a merge that actually narrowed the plan justifies the closed
	// interval rescale — prefix plans are born with both bounds set.
	if changed && !p.Lo.Unbounded && !p.Hi.Unbounded {
		p.EstimatedRows = int(float64(p.EstimatedRows) * closedSelectivity / halfOpenSelectivity)
		if !strings.Contains(p.Reason, "closed") {
			p.Reason += " (closed interval)"
		}
	}
}

// tighterLo reports whether b is a stricter lower bound than cur. Bounds
// of different type classes (numbers vs strings) are incomparable — such
// a conjunction is unsatisfiable anyway — so the current bound is kept
// rather than letting Compare's type-rank order swap the scan into the
// wrong class segment.
func tighterLo(cur, b Bound) bool {
	if cur.Unbounded {
		return true
	}
	if !comparableTypes(cur.Value, b.Value) {
		return false
	}
	c := document.Compare(b.Value, cur.Value)
	return c > 0 || (c == 0 && cur.Inclusive && !b.Inclusive)
}

func tighterHi(cur, b Bound) bool {
	if cur.Unbounded {
		return true
	}
	if !comparableTypes(cur.Value, b.Value) {
		return false
	}
	c := document.Compare(b.Value, cur.Value)
	return c < 0 || (c == 0 && cur.Inclusive && !b.Inclusive)
}

// prefixSuccessor returns the smallest string greater than every string
// with the given prefix, with ok=false when no such string exists (the
// prefix is empty or all 0xff bytes).
func prefixSuccessor(s string) (string, bool) {
	b := []byte(s)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1]), true
		}
	}
	return "", false
}

// Posting is one (field path, canonical value) key of InvaliDB's inverted
// query index: a query registered under a posting can only match
// after-images carrying that value at that path.
type Posting struct {
	Path string
	Key  string // document.MatchKey of the required value
}

// RequiredPostings derives, when possible, a finite posting set such that
// every document matching p carries at least one of the postings (whole
// value or array element). ok=false means no such set exists and the query
// must be evaluated against every after-image of its table.
//
// The derivation is conservative: equality-like operators ($eq, $in,
// $contains) under conjunctions contribute their value keys; disjunctions
// are indexable only when every branch is, contributing the union.
func RequiredPostings(p Predicate) (postings []Posting, ok bool) {
	switch t := p.(type) {
	case *Field:
		switch t.Op {
		case OpEq, OpContains:
			return []Posting{{Path: t.Path, Key: document.MatchKey(t.Value)}}, true
		case OpIn:
			list, _ := t.Value.([]any)
			out := make([]Posting, 0, len(list))
			for _, v := range list {
				out = append(out, Posting{Path: t.Path, Key: document.MatchKey(v)})
			}
			// An empty $in matches nothing: the empty posting set is a
			// correct (and maximally selective) necessary condition.
			return out, true
		}
		return nil, false
	case *And:
		// Any single indexable child is a sound necessary condition;
		// prefer the one with the fewest postings.
		var best []Posting
		found := false
		for _, c := range t.Children {
			sub, ok := RequiredPostings(c)
			if !ok {
				continue
			}
			if !found || len(sub) < len(best) {
				best, found = sub, true
			}
		}
		return best, found
	case *Or:
		// Every branch must be indexable; a document matching any branch
		// must carry that branch's posting.
		var union []Posting
		for _, c := range t.Children {
			sub, ok := RequiredPostings(c)
			if !ok {
				return nil, false
			}
			union = append(union, sub...)
		}
		return union, true
	}
	return nil, false
}
