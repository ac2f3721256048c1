package invalidb

import (
	"quaestor/internal/query"
	"quaestor/internal/store"
)

// queryIndex is a matching task's inverted index over its registered
// queries: queries whose predicate implies an equality-like condition are
// keyed by (table, field path, canonical value), so an incoming
// after-image only has to be tested against the queries whose posting it
// actually carries plus the residual (non-indexable) queries. This turns
// the per-event matching cost from O(registered queries) into
// O(candidates), which is what lets a single cell hold thousands of
// registered queries.
//
// The index is owned by one matching task goroutine and needs no locking.
type queryIndex struct {
	// tables maps a table to the field paths its registered queries post
	// on, each to its postings. A path is listed while it holds a
	// posting, so candidate lookup only extracts the paths in use.
	tables map[string]map[string]pathPostings
	// residual holds queries with no derivable posting set; they are
	// candidates for every event of any table.
	residual map[string]*nodeQuery
	// keys and ends are collect's scratch: the match keys of one path of
	// an after-image, and where each ends.
	keys []byte
	ends []int
}

// pathPostings maps a canonical value (match key) at one path to the
// queries registered under it.
type pathPostings map[string]map[string]*nodeQuery

func newQueryIndex() *queryIndex {
	return &queryIndex{
		tables:   map[string]map[string]pathPostings{},
		residual: map[string]*nodeQuery{},
	}
}

// add registers nq under its derived postings (or as residual) and
// remembers the postings on the nodeQuery for symmetric removal.
func (qi *queryIndex) add(key string, nq *nodeQuery) {
	postings, ok := query.RequiredPostings(nq.q.Predicate)
	if !ok {
		qi.residual[key] = nq
		return
	}
	nq.postings = postings
	paths := qi.tables[nq.q.Table]
	if paths == nil {
		paths = map[string]pathPostings{}
		qi.tables[nq.q.Table] = paths
	}
	for _, p := range postings {
		byKey := paths[p.Path]
		if byKey == nil {
			byKey = pathPostings{}
			paths[p.Path] = byKey
		}
		m := byKey[p.Key]
		if m == nil {
			m = map[string]*nodeQuery{}
			byKey[p.Key] = m
		}
		m[key] = nq
	}
}

// remove drops a query from the index.
func (qi *queryIndex) remove(key string, nq *nodeQuery) {
	if _, ok := qi.residual[key]; ok {
		delete(qi.residual, key)
		return
	}
	table := nq.q.Table
	paths := qi.tables[table]
	for _, p := range nq.postings {
		byKey := paths[p.Path]
		if m, ok := byKey[p.Key]; ok {
			delete(m, key)
			if len(m) == 0 {
				delete(byKey, p.Key)
			}
		}
		if len(byKey) == 0 {
			delete(paths, p.Path)
		}
	}
	if len(paths) == 0 {
		delete(qi.tables, table)
	}
}

// collect gathers the queries whose postings the after-image carries into
// out: those under its value's match key at each path in use and, for a
// non-empty array, under each element's — the keys index.ValueKeys gives.
// The keys are read off the after-image into the index's scratch, so a
// text document is not decoded. Deletes carry no fields and thus hit no
// postings — their candidates come from was-match state, which the
// caller adds separately.
func (qi *queryIndex) collect(ev *store.ChangeEvent, out map[string]*nodeQuery) {
	for key, nq := range qi.residual {
		out[key] = nq
	}
	paths := qi.tables[ev.Table]
	if len(paths) == 0 || ev.After == nil || ev.Deleted {
		return
	}
	for path, byKey := range paths {
		keys, ends, elems, ok := ev.After.IndexKeys(path, qi.keys[:0], qi.ends[:0])
		if ok {
			from := 0
			for _, end := range ends {
				hits(byKey[string(keys[from:end])], out)
				from = end
			}
			if elems {
				// The whole array's key is its elements' keys, bracketed.
				whole := len(keys)
				keys = append(keys, '[')
				from = 0
				for i, end := range ends {
					if i > 0 {
						keys = append(keys, ',')
					}
					keys = append(keys, keys[from:end]...)
					from = end
				}
				keys = append(keys, ']')
				hits(byKey[string(keys[whole:])], out)
			}
		}
		qi.keys, qi.ends = keys, ends
	}
}

func hits(queries map[string]*nodeQuery, out map[string]*nodeQuery) {
	for key, nq := range queries {
		out[key] = nq
	}
}
