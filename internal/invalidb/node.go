package invalidb

import (
	"sync"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/store"
)

// nodeMsg is the union message type consumed by a matching task: exactly
// one field is set.
type nodeMsg struct {
	events     []store.ChangeEvent // read-only, shared with the row's other cells
	activate   *nodeActivation
	deactivate string
}

type nodeActivation struct {
	q       *query.Query
	mask    EventMask
	initial []*document.Document // matches within this node's object partition
	asOf    uint64               // change-stream position the initial set reflects
}

// nodeQuery is a matching task's registration of one query.
type nodeQuery struct {
	q        *query.Query
	mask     EventMask
	stateful bool
	// asOf is the sequence number the initial match set reflects; events at
	// or below it are already part of that state and must be skipped, which
	// makes activation exact even while events race the registration.
	asOf uint64
	// wasMatch holds the ids of documents in this node's object partition
	// that currently match the query predicate — the per-record "former
	// matching status" state of Section 4.1, partitioned by record id.
	wasMatch map[string]struct{}
	// postings are the inverted-index keys the query is registered under
	// (nil for residual queries); kept for symmetric removal.
	postings []query.Posting
}

// matchNode is one cell of the 2-D matching grid: it owns the queries of
// one query partition restricted to the documents of one object partition.
type matchNode struct {
	cluster *Cluster
	row     int // object partition
	col     int // query partition
	in      chan nodeMsg
	queries map[string]*nodeQuery
	// qidx is the inverted index over registered queries; nil when the
	// cluster runs with DisableQueryIndex (the scan baseline).
	qidx *queryIndex
	// matchedBy is the reverse of the queries' wasMatch sets: document id
	// → queries currently containing it, a few per record. It supplies the
	// was-match side of candidate generation (a query must see the event
	// that makes its result drop a document even when the after-image no
	// longer carries the query's posting).
	matchedBy map[string][]matchRef
	// cands is match's candidate set, reused from event to event.
	cands map[string]*nodeQuery
}

func newMatchNode(c *Cluster, row, col, buffer int) *matchNode {
	n := &matchNode{
		cluster:   c,
		row:       row,
		col:       col,
		in:        make(chan nodeMsg, buffer),
		queries:   map[string]*nodeQuery{},
		matchedBy: map[string][]matchRef{},
		cands:     map[string]*nodeQuery{},
	}
	if !c.cfg.DisableQueryIndex {
		n.qidx = newQueryIndex()
	}
	return n
}

func (n *matchNode) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case m := <-n.in:
			n.handle(m)
		case <-n.cluster.done:
			return
		}
	}
}

func (n *matchNode) handle(m nodeMsg) {
	switch {
	case m.events != nil:
		for i := range m.events {
			if m.events[i].After != nil {
				n.match(&m.events[i])
			}
		}
		n.cluster.inflight.Add(-1)
	case m.activate != nil:
		key := m.activate.q.Key()
		nq := &nodeQuery{
			q:        m.activate.q,
			mask:     m.activate.mask,
			stateful: m.activate.q.Stateful(),
			asOf:     m.activate.asOf,
			wasMatch: make(map[string]struct{}, len(m.activate.initial)),
		}
		for _, d := range m.activate.initial {
			nq.wasMatch[d.ID] = struct{}{}
			n.setMatched(d.ID, key, nq)
		}
		n.queries[key] = nq
		if n.qidx != nil {
			n.qidx.add(key, nq)
		}
	case m.deactivate != "":
		if nq, ok := n.queries[m.deactivate]; ok {
			for id := range nq.wasMatch {
				n.clearMatched(id, m.deactivate)
			}
			if n.qidx != nil {
				n.qidx.remove(m.deactivate, nq)
			}
			delete(n.queries, m.deactivate)
		}
	}
}

// matchRef is one query of a record's matchedBy list.
type matchRef struct {
	key string
	nq  *nodeQuery
}

func (n *matchNode) setMatched(docID, key string, nq *nodeQuery) {
	if n.qidx == nil {
		return // scan baseline: nothing reads the reverse map
	}
	refs := n.matchedBy[docID]
	for i := range refs {
		if refs[i].key == key {
			refs[i].nq = nq
			return
		}
	}
	n.matchedBy[docID] = append(refs, matchRef{key: key, nq: nq})
}

func (n *matchNode) clearMatched(docID, key string) {
	if n.qidx == nil {
		return
	}
	refs := n.matchedBy[docID]
	for i := range refs {
		if refs[i].key != key {
			continue
		}
		if len(refs) == 1 {
			delete(n.matchedBy, docID)
			return
		}
		last := len(refs) - 1
		refs[i] = refs[last]
		refs[last] = matchRef{}
		n.matchedBy[docID] = refs[:last]
		return
	}
}

// match evaluates one after-image against the candidate queries — the
// "Is Match? / Was Match?" decision of Figure 6 — and emits or forwards
// the resulting add/remove/change events.
//
// With the inverted query index, candidates are the union of (a) queries
// registered under a posting the after-image carries — covering every
// possible is-match — and (b) queries currently containing the document —
// covering every possible was-match — and (c) residual queries with no
// derivable posting. Any query outside that union can produce neither
// transition nor change, so skipping it is exact, not approximate.
func (n *matchNode) match(ev *store.ChangeEvent) {
	if len(n.queries) == 0 {
		return
	}
	docID := ev.After.ID
	if n.qidx == nil {
		for key, nq := range n.queries {
			n.matchOne(key, nq, ev, docID)
		}
		return
	}
	cands := n.cands
	n.qidx.collect(ev, cands)
	for _, ref := range n.matchedBy[docID] {
		cands[ref.key] = ref.nq
	}
	for key, nq := range cands {
		n.matchOne(key, nq, ev, docID)
	}
	clear(cands)
}

func (n *matchNode) matchOne(key string, nq *nodeQuery, ev *store.ChangeEvent, docID string) {
	if nq.q.Table != ev.Table {
		return
	}
	if ev.Seq <= nq.asOf {
		// Already reflected in the activation's initial match set.
		return
	}
	n.cluster.evaluated.Add(1)
	_, was := nq.wasMatch[docID]
	is := !ev.Deleted && nq.q.Predicate.Matches(ev.After)
	var evType EventType
	switch {
	case is && !was:
		evType = EventAdd
		nq.wasMatch[docID] = struct{}{}
		n.setMatched(docID, key, nq)
	case !is && was:
		evType = EventRemove
		delete(nq.wasMatch, docID)
		n.clearMatched(docID, key)
	case is && was:
		evType = EventChange
	default:
		return // never matched: irrelevant update
	}

	if nq.stateful {
		// The order layer owns windowing; it needs every predicate
		// transition including changes (a change can reorder results).
		kind := rawAdd
		switch evType {
		case EventRemove:
			kind = rawRemove
		case EventChange:
			kind = rawChange
		}
		n.cluster.forwardToOrder(rawEvent{
			kind:      kind,
			queryKey:  key,
			doc:       ev.After,
			seq:       ev.Seq,
			eventTime: ev.Time,
		})
		return
	}
	if !nq.mask.Has(evType) {
		return
	}
	n.cluster.emit(Notification{
		QueryKey:  key,
		Type:      evType,
		Doc:       ev.After,
		Index:     -1,
		Seq:       ev.Seq,
		EventTime: ev.Time,
	})
}
