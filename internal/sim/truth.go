package sim

import (
	"cmp"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"time"

	"quaestor/internal/client"
	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/server"
	"quaestor/internal/store"
	"quaestor/internal/ttl"
)

// truth judges the answers clients get from the simulator's own log of
// acknowledged writes and from the store, never from the system's headers
// or counters:
//
//   - a record read is stale when it serves a version below the latest
//     acknowledged one;
//   - a query is stale when its members (object list) or ids (id list)
//     differ from the query evaluated against the store at serve time;
//   - staleness runs from the first acknowledged write the served copy
//     missed;
//   - a query result's true TTL (Figure 11) runs from an origin serve to
//     the first write that changed the result.
type truth struct {
	db  *store.Store
	met *Metrics
	// writes holds each table's acknowledged writes in order.
	writes map[string][]write
	// commits holds each record's acknowledged versions in order.
	commits map[string][]commit
	// current maps a query's content to len(writes[table]) when the
	// content was last seen current: no write before that position can
	// be one a copy of the content missed.
	current map[content]int
	// pending holds, per table and query key, the origin serves whose
	// result no write has changed yet.
	pending map[string]map[string]*pendingServes
}

type write struct {
	at            time.Time
	before, after *document.Document
}

type commit struct {
	version int64
	at      time.Time
}

// content identifies one query result: the query and a hash of its ids,
// or of its ids and versions.
type content struct {
	key  string
	hash uint64
}

type pendingServes struct {
	q      *query.Query
	serves []serve
}

type serve struct {
	at  time.Time
	rep ttl.Representation
}

func newTruth(db *store.Store, met *Metrics) *truth {
	return &truth{
		db:      db,
		met:     met,
		writes:  map[string][]write{},
		commits: map[string][]commit{},
		current: map[content]int{},
		pending: map[string]map[string]*pendingServes{},
	}
}

// changes reports whether w changed q's result as a representation rep
// sees it: an id list changes with its membership, an object list also
// with any member's state.
func changes(q *query.Query, rep ttl.Representation, w write) bool {
	was, is := q.Matches(w.before), q.Matches(w.after)
	return was != is || (was && rep == ttl.ObjectList)
}

// wrote logs one acknowledged write and closes the true TTL of every
// origin serve whose result it changed.
func (t *truth) wrote(table string, before, after *document.Document, at time.Time) {
	w := write{at: at, before: before, after: after}
	t.writes[table] = append(t.writes[table], w)
	key := server.RecordKey(table, after.ID)
	t.commits[key] = append(t.commits[key], commit{version: after.Version, at: at})
	for _, p := range t.pending[table] {
		kept := p.serves[:0]
		for _, sv := range p.serves {
			if changes(p.q, sv.rep, w) {
				t.met.TrueTTLs.Observe(at.Sub(sv.at))
			} else {
				kept = append(kept, sv)
			}
		}
		p.serves = kept
	}
}

// servedAtOrigin opens the true TTL of a query result the origin served.
func (t *truth) servedAtOrigin(q *query.Query, rep ttl.Representation, at time.Time) {
	byKey := t.pending[q.Table]
	if byKey == nil {
		byKey = map[string]*pendingServes{}
		t.pending[q.Table] = byKey
	}
	p := byKey[q.Key()]
	if p == nil {
		p = &pendingServes{q: q}
		byKey[q.Key()] = p
	}
	p.serves = append(p.serves, serve{at: at, rep: rep})
}

// staleRecord judges a read of table/id that served version.
func (t *truth) staleRecord(table, id string, version int64) (since time.Time, stale bool) {
	commits := t.commits[server.RecordKey(table, id)]
	i := sort.Search(len(commits), func(i int) bool { return commits[i].version > version })
	if i == len(commits) {
		return time.Time{}, false
	}
	return commits[i].at, true
}

// staleQuery judges an answer to q. It also records the store's current
// content of q as seen now.
func (t *truth) staleQuery(q *query.Query, res *client.Result) (since time.Time, stale bool) {
	docs, err := t.db.Query(q)
	must(err)
	log := t.writes[q.Table]
	key := q.Key()
	curIDs, curVersions := members(docs)
	ids, objects := hashContent(key, curIDs, nil), hashContent(key, curIDs, curVersions)
	t.current[ids] = len(log)
	t.current[objects] = len(log)

	served, want := hashContent(key, slices.Sorted(slices.Values(res.IDs)), nil), ids
	if res.Representation == ttl.ObjectList {
		servedIDs, servedVersions := members(res.Docs)
		served, want = hashContent(key, servedIDs, servedVersions), objects
	}
	if served == want {
		return time.Time{}, false
	}
	// The copy was current at position from; the first later write that
	// changed its content is the one it missed.
	from, ok := t.current[served]
	if !ok {
		panic("sim: a query served content the store never held")
	}
	for _, w := range log[from:] {
		if changes(q, res.Representation, w) {
			return w.at, true
		}
	}
	panic("sim: a stale query result missed no write")
}

// members lists a result's ids in id order, with their versions.
func members(docs []*document.Document) (ids []string, versions []int64) {
	sorted := slices.SortedFunc(slices.Values(docs), func(a, b *document.Document) int { return cmp.Compare(a.ID, b.ID) })
	for _, d := range sorted {
		ids = append(ids, d.ID)
		versions = append(versions, d.Version)
	}
	return ids, versions
}

// hashContent identifies q's result by its sorted ids and, unless versions
// is nil, their versions.
func hashContent(key string, ids []string, versions []int64) content {
	h := fnv.New64a()
	h.Write([]byte(key))
	var buf []byte
	for i, id := range ids {
		buf = append(append(buf[:0], 0), id...)
		if versions != nil {
			buf = strconv.AppendInt(append(buf, '#'), versions[i], 10)
		}
		h.Write(buf)
	}
	return content{key: key, hash: h.Sum64()}
}
