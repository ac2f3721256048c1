package invalidb

import (
	"quaestor/internal/index"
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
	// postings maps (table, path, canonical value) to the queries
	// registered under that key.
	postings map[postingKey]map[string]*nodeQuery
	// residual holds queries with no derivable posting set; they are
	// candidates for every event of any table.
	residual map[string]*nodeQuery
	// paths tracks, per table, how many registered queries post on each
	// field path, so candidate lookup only extracts the paths in use.
	paths map[string]map[string]int
}

type postingKey struct {
	table string
	path  string
	key   string
}

func newQueryIndex() *queryIndex {
	return &queryIndex{
		postings: map[postingKey]map[string]*nodeQuery{},
		residual: map[string]*nodeQuery{},
		paths:    map[string]map[string]int{},
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
	table := nq.q.Table
	for _, p := range postings {
		pk := postingKey{table: table, path: p.Path, key: p.Key}
		m := qi.postings[pk]
		if m == nil {
			m = map[string]*nodeQuery{}
			qi.postings[pk] = m
		}
		m[key] = nq
		tp := qi.paths[table]
		if tp == nil {
			tp = map[string]int{}
			qi.paths[table] = tp
		}
		tp[p.Path]++
	}
}

// remove drops a query from the index.
func (qi *queryIndex) remove(key string, nq *nodeQuery) {
	if _, ok := qi.residual[key]; ok {
		delete(qi.residual, key)
		return
	}
	table := nq.q.Table
	for _, p := range nq.postings {
		pk := postingKey{table: table, path: p.Path, key: p.Key}
		if m, ok := qi.postings[pk]; ok {
			delete(m, key)
			if len(m) == 0 {
				delete(qi.postings, pk)
			}
		}
		if tp, ok := qi.paths[table]; ok {
			tp[p.Path]--
			if tp[p.Path] <= 0 {
				delete(tp, p.Path)
			}
			if len(tp) == 0 {
				delete(qi.paths, table)
			}
		}
	}
}

// collect gathers the queries whose postings the after-image carries into
// out. Deletes carry no fields and thus hit no postings — their candidates
// come from was-match state, which the caller adds separately.
func (qi *queryIndex) collect(ev *store.ChangeEvent, out map[string]*nodeQuery) {
	for key, nq := range qi.residual {
		out[key] = nq
	}
	tp := qi.paths[ev.Table]
	if len(tp) == 0 || ev.After == nil || ev.Deleted {
		return
	}
	for path := range tp {
		v, ok := ev.After.Get(path)
		if !ok {
			continue
		}
		whole, elems := index.ValueKeys(v)
		qi.hits(postingKey{table: ev.Table, path: path, key: whole}, out)
		for _, el := range elems {
			qi.hits(postingKey{table: ev.Table, path: path, key: el}, out)
		}
	}
}

func (qi *queryIndex) hits(pk postingKey, out map[string]*nodeQuery) {
	for key, nq := range qi.postings[pk] {
		out[key] = nq
	}
}
