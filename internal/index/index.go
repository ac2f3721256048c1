// Package index provides the incrementally-maintained secondary indexes
// behind Quaestor's query planner: a multikey hash index for equality and
// containment probes plus an ordered index (sorted by document.Compare) for
// range and prefix scans, both over one dotted field path.
//
// A document is posted under the value it carries at the path, except that
// a non-empty array is posted under each of its elements only: the whole
// array gets no posting of its own. Scalars and the empty array are posted
// whole. An array-valued equality probe is therefore answered from the
// element postings of the array's first element, a superset of the
// documents whose field deep-equals the array, and the caller's residual
// re-check narrows it to the exact matches.
//
// An index is a candidate generator, not an oracle: probes and scans return
// a superset of the matching document ids and callers re-verify each
// candidate against the full predicate. That contract keeps the index
// correct by construction in the presence of Mongo's equality subtleties
// (array membership, cross-type range guards) — the worst an index bug
// could cost is performance, never a wrong result. The only requirement is
// completeness: every id that matches the operator being served must be
// returned.
//
// Indexes are not internally synchronized. The store updates them while
// holding the owning shard's write lock, so index maintenance rides the
// exact same critical section as the document write it mirrors.
package index

import (
	"slices"
	"sort"

	"quaestor/internal/document"
)

// ValueKeys returns the canonical hash keys of a stored field value: the
// whole value's canonical encoding plus, for arrays, each element's
// encoding. The element keys implement multikey semantics: they serve both
// Mongo equality-as-membership ({tags: "a"} matching tags:["a","b"]) and
// $contains probes. InvaliDB's inverted query index posts after-images
// under all of them; a Field posts a non-empty array under its elements
// only.
func ValueKeys(v any) (whole string, elems []string) {
	whole = document.MatchKey(v)
	if arr, ok := v.([]any); ok {
		elems = make([]string, len(arr))
		for i, e := range arr {
			elems[i] = document.MatchKey(e)
		}
	}
	return whole, elems
}

// entry groups the ids of the documents indexed under one distinct value.
type entry struct {
	val any    // the value itself, for ordered scans
	key string // MatchKey encoding, the hash key
	// whole holds ids whose field deep-equals val, which is a scalar or
	// the empty array; elem holds ids whose non-empty array field contains
	// val. They are kept apart because range scans must see only whole
	// values and containment probes only elements. A document is posted
	// one way or the other, never both. Each list is allocated by the
	// first posting of its kind: most entries only ever get one. A
	// posting appends; a removal moves the list's last id into the hole.
	whole, elem []string
	// pos gives each id's position in whichever list holds it, once the
	// entry holds more than posAt ids, so that removing from a long list
	// — a low-cardinality field's — costs O(1), not a scan.
	pos map[string]int32
}

// posAt is the entry size past which an entry keeps pos.
const posAt = 32

func (e *entry) empty() bool { return len(e.whole) == 0 && len(e.elem) == 0 }

// post appends id to one of e's lists — unless it already ends it: the
// element postings of one document's array are made in a row, so a
// repeated element posts once.
func (e *entry) post(list *[]string, id string) {
	if n := len(*list); n > 0 && (*list)[n-1] == id {
		return
	}
	if e.pos != nil {
		e.pos[id] = int32(len(*list))
	}
	*list = append(*list, id)
	if e.pos == nil && len(e.whole)+len(e.elem) > posAt {
		e.pos = make(map[string]int32, 2*posAt)
		for _, l := range [][]string{e.whole, e.elem} {
			for i, x := range l {
				e.pos[x] = int32(i)
			}
		}
	}
}

// unpost removes id from one of e's lists; an id it does not hold (a
// repeated element's second removal) is a no-op.
func (e *entry) unpost(list *[]string, id string) {
	l := *list
	i := -1
	if e.pos != nil {
		if at, ok := e.pos[id]; ok && int(at) < len(l) && l[at] == id {
			i = int(at)
			delete(e.pos, id)
		}
	} else {
		for j, x := range l {
			if x == id {
				i = j
				break
			}
		}
	}
	if i < 0 {
		return
	}
	last := len(l) - 1
	if i != last {
		l[i] = l[last]
		if e.pos != nil {
			e.pos[l[i]] = int32(i)
		}
	}
	l[last] = ""
	*list = l[:last]
}

// Bound is one end of a range scan.
type Bound struct {
	Value     any
	Inclusive bool
	// Unbounded marks an open end; Value is ignored.
	Unbounded bool
}

// Field is a secondary index over one dotted field path of one shard.
type Field struct {
	path   string
	byKey  map[string]*entry
	sorted []*entry // ascending by (document.Compare, key)
	docs   int      // documents currently indexed (field present)
	// keys and ends hold the match keys Add and Remove look entries up
	// by; the owning shard's write lock serializes them.
	keys []byte
	ends []int
}

// NewField creates an empty index over the given dotted path.
func NewField(path string) *Field {
	return &Field{path: path, byKey: map[string]*entry{}}
}

// Path returns the indexed field path.
func (f *Field) Path() string { return f.path }

// Stats summarizes the index for the planner.
type Stats struct {
	// Docs is the number of indexed documents (those with the field
	// present).
	Docs int
	// Distinct is the number of distinct indexed values: scalars, empty
	// arrays and the elements of non-empty arrays.
	Distinct int
}

// Stats returns current statistics.
func (f *Field) Stats() Stats { return Stats{Docs: f.docs, Distinct: len(f.byKey)} }

// Add indexes the document's value at the field path. Documents without
// the field are not indexed.
func (f *Field) Add(doc *document.Document) {
	elems, ok := f.keysOf(doc)
	if !ok {
		return
	}
	f.docs++
	from := 0
	for i, end := range f.ends {
		key := f.keys[from:end]
		from = end
		e, found := f.byKey[string(key)]
		if !found {
			e = f.newEntry(doc, elems, i, string(key))
		}
		if elems {
			e.post(&e.elem, doc.ID)
		} else {
			e.post(&e.whole, doc.ID)
		}
	}
}

// Remove drops the document's postings. It must be called with the same
// field value the document was indexed under (the store passes the
// pre-image).
func (f *Field) Remove(doc *document.Document) {
	elems, ok := f.keysOf(doc)
	if !ok {
		return
	}
	f.docs--
	from := 0
	for _, end := range f.ends {
		key := f.keys[from:end]
		from = end
		e, found := f.byKey[string(key)]
		if !found {
			continue
		}
		if elems {
			e.unpost(&e.elem, doc.ID)
		} else {
			e.unpost(&e.whole, doc.ID)
		}
		if e.empty() {
			f.dropEntry(e)
		}
	}
}

// keysOf puts the match keys doc is posted under into f.keys and f.ends
// (see document.Document.IndexKeys).
func (f *Field) keysOf(doc *document.Document) (elems, ok bool) {
	f.keys, f.ends, elems, ok = doc.IndexKeys(f.path, f.keys[:0], f.ends[:0])
	return elems, ok
}

// newEntry creates the entry for key, the match key of doc's value at the
// path or, with elems, of its element i.
func (f *Field) newEntry(doc *document.Document, elems bool, i int, key string) *entry {
	v, _ := doc.Get(f.path)
	if elems {
		v = v.([]any)[i]
	}
	e := &entry{val: document.CloneValue(v), key: key}
	f.byKey[key] = e
	at := f.searchEntry(e.val, e.key)
	f.sorted = slices.Insert(f.sorted, at, e)
	return e
}

// dropEntry removes an entry that holds no posting.
func (f *Field) dropEntry(e *entry) {
	delete(f.byKey, e.key)
	i := f.searchEntry(e.val, e.key)
	for i < len(f.sorted) && f.sorted[i] != e {
		i++
	}
	if i < len(f.sorted) {
		f.sorted = slices.Delete(f.sorted, i, i+1)
	}
}

// searchEntry returns the insertion index for (val, key) in the sorted
// slice. MatchKey equality coincides with Compare equality, so the key
// tie-break is defensive: it keeps positions deterministic even if the
// two notions ever diverge.
func (f *Field) searchEntry(val any, key string) int {
	return sort.Search(len(f.sorted), func(i int) bool {
		c := document.Compare(f.sorted[i].val, val)
		if c != 0 {
			return c >= 0
		}
		return f.sorted[i].key >= key
	})
}

// ProbeEq returns candidate ids for {path: {$eq: value}}. A scalar gets
// its exact-value postings plus its element postings, so array membership
// equality is covered. The empty array gets its exact-value postings only:
// an array value never matches by membership. A non-empty array value gets
// the element postings of its first element: every document whose field
// deep-equals the array carries that element, and the caller's residual
// re-check drops the rest. Probes hand out the index's own list where one
// list answers (read-only, valid until the next write: the caller holds
// the table's read lock) and copy only to join two.
func (f *Field) ProbeEq(value any) []string {
	arr, isArr := value.([]any)
	if isArr && len(arr) > 0 {
		return f.ProbeContains(arr[0])
	}
	e, ok := f.byKey[document.MatchKey(value)]
	if !ok {
		return nil
	}
	switch {
	case isArr || len(e.elem) == 0:
		return slices.Clip(e.whole)
	case len(e.whole) == 0:
		return slices.Clip(e.elem)
	}
	// A document is posted whole or by its elements, never both, so the
	// two lists are disjoint.
	return slices.Concat(e.whole, e.elem)
}

// ProbeContains returns candidate ids for {path: {$contains: value}}:
// documents whose array field has value as an element. The list is the
// index's own, as for ProbeEq.
func (f *Field) ProbeContains(value any) []string {
	e, ok := f.byKey[document.MatchKey(value)]
	if !ok {
		return nil
	}
	return slices.Clip(e.elem)
}

// typeClass groups values the way the range operators' comparability guard
// does: range predicates only ever match numbers against numbers and
// strings against strings. Classes are disjoint, and within the sorted
// order (null < numbers < strings < maps < arrays < bools) each class is
// one contiguous segment.
type typeClass int

const (
	classOther typeClass = iota
	classNumber
	classString
)

func classOf(v any) typeClass {
	switch v.(type) {
	case int64, float64:
		return classNumber
	case string:
		return classString
	}
	return classOther
}

// RangeScan returns candidate ids for values within [lo, hi] (each end
// optionally exclusive or unbounded), restricted to the bound values' type
// class. At least one bound must be bounded. Only whole-value postings are
// returned: arrays never satisfy range operators.
func (f *Field) RangeScan(lo, hi Bound) []string {
	var ids []string
	f.scanRange(lo, hi, func(e *entry) {
		ids = append(ids, e.whole...)
	})
	return ids
}

func (f *Field) scanRange(lo, hi Bound, visit func(*entry)) {
	start, end, ok := f.window(lo, hi)
	if !ok {
		return
	}
	for i := start; i < end; i++ {
		visit(f.sorted[i])
	}
}

// window resolves the bounds to a half-open [start, end) slice of the
// sorted entries, restricted to the bound values' type class. ok is false
// when the reference bound is not a scalar (range operators never match
// non-scalar values).
func (f *Field) window(lo, hi Bound) (start, end int, ok bool) {
	ref := lo.Value
	if lo.Unbounded {
		ref = hi.Value
	}
	class := classOf(ref)
	if class == classOther {
		return 0, 0, false
	}
	if lo.Unbounded {
		// First entry of the type class.
		start = sort.Search(len(f.sorted), func(i int) bool {
			return !lessClass(f.sorted[i].val, class)
		})
	} else {
		start = sort.Search(len(f.sorted), func(i int) bool {
			c := document.Compare(f.sorted[i].val, lo.Value)
			if lo.Inclusive {
				return c >= 0
			}
			return c > 0
		})
	}
	if hi.Unbounded {
		// Entries sort by type rank first, so the class segment ends where
		// a later-ranked type begins; Compare against any in-class value
		// cannot express that, hence the explicit class probe.
		end = start + sort.Search(len(f.sorted)-start, func(i int) bool {
			v := f.sorted[start+i].val
			return classOf(v) != class && !lessClass(v, class)
		})
	} else {
		end = start + sort.Search(len(f.sorted)-start, func(i int) bool {
			c := document.Compare(f.sorted[start+i].val, hi.Value)
			return c > 0 || (c == 0 && !hi.Inclusive)
		})
	}
	return start, end, true
}

// RangeRuns visits the whole-value posting ids of the entries within
// [lo, hi] in value order — descending when desc — grouping Compare-equal
// adjacent entries into one run and sorting each run's ids ascending.
// Returning false from visit stops the scan.
//
// This is the ordered execution source: value order matches an ORDER BY on
// the indexed path (walked backwards for descending), and ascending ids
// within a run match the query order's id tie-break, which ignores the
// sort direction. MatchKey equality coincides with Compare equality, so
// runs are single entries in practice; the grouping is defensive, keeping
// emission order correct even if the two notions ever diverge.
func (f *Field) RangeRuns(lo, hi Bound, desc bool, visit func(ids []string) bool) {
	start, end, ok := f.window(lo, hi)
	if !ok {
		return
	}
	emit := func(run []*entry) bool {
		n := 0
		for _, e := range run {
			n += len(e.whole)
		}
		if n == 0 {
			return true // only element postings: arrays never satisfy ranges
		}
		ids := make([]string, 0, n)
		for _, e := range run {
			ids = append(ids, e.whole...)
		}
		sort.Strings(ids)
		return visit(ids)
	}
	if !desc {
		for i := start; i < end; {
			j := i + 1
			for j < end && document.Compare(f.sorted[j].val, f.sorted[i].val) == 0 {
				j++
			}
			if !emit(f.sorted[i:j]) {
				return
			}
			i = j
		}
		return
	}
	for j := end; j > start; {
		i := j - 1
		for i > start && document.Compare(f.sorted[i-1].val, f.sorted[j-1].val) == 0 {
			i--
		}
		if !emit(f.sorted[i:j]) {
			return
		}
		j = i
	}
}

// lessClass reports whether v's type sorts strictly before the given class
// segment in document.Compare order.
func lessClass(v any, class typeClass) bool {
	switch class {
	case classNumber:
		return v == nil
	case classString:
		switch v.(type) {
		case nil, int64, float64:
			return true
		}
	}
	return false
}
