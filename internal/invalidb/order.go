package invalidb

import (
	"sort"
	"sync"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
)

// rawKind classifies events flowing from the matching grid into the order
// layer.
type rawKind int

const (
	rawActivate rawKind = iota
	rawDeactivate
	rawAdd
	rawRemove
	rawChange
)

// rawEvent is a predicate-level transition for a stateful query, or an
// activation/deactivation control message.
type rawEvent struct {
	kind      rawKind
	queryKey  string
	doc       *document.Document
	seq       uint64
	eventTime time.Time
	reg       *Registration // for rawActivate
}

// orderState maintains the full ordered match set of one stateful query —
// "the entirety of all items in the offset" — so that windowed membership
// and positional changes (changeIndex) can be derived exactly.
type orderState struct {
	q       *query.Query
	mask    EventMask
	members []*document.Document // sorted by q.Less, full predicate matches
}

// orderTask owns the order-related state of all stateful queries in one
// query partition. It carries no ordering-compensation machinery of its
// own: the store's commit pipeline delivers the change stream in strict
// global Seq order, a document's events all pass through the same
// object-partition cell, and each cell forwards to this task over one
// FIFO channel — so per-document rawEvents arrive here in write order,
// and the remove+reinsert membership updates below need no Seq
// comparisons to converge on the correct window.
type orderTask struct {
	cluster *Cluster
	in      <-chan rawEvent
	states  map[string]*orderState
}

func newOrderTask(c *Cluster, in <-chan rawEvent) *orderTask {
	return &orderTask{cluster: c, in: in, states: map[string]*orderState{}}
}

func (t *orderTask) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case ev := <-t.in:
			t.handle(ev)
		case <-t.cluster.done:
			return
		}
	}
}

func (t *orderTask) handle(ev rawEvent) {
	switch ev.kind {
	case rawActivate:
		st := &orderState{q: ev.reg.Query, mask: ev.reg.Mask}
		st.members = append(st.members, ev.reg.InitialMatches...)
		st.q.Sort(st.members)
		t.states[ev.queryKey] = st
	case rawDeactivate:
		delete(t.states, ev.queryKey)
	case rawAdd, rawRemove, rawChange:
		defer t.cluster.inflight.Add(-1)
		st, ok := t.states[ev.queryKey]
		if !ok {
			return
		}
		t.apply(st, ev)
	}
}

// window returns the ids of the documents visible through the query's
// OFFSET/LIMIT window, in order.
func (st *orderState) window() []*document.Document {
	lo := st.q.Offset
	if lo > len(st.members) {
		lo = len(st.members)
	}
	hi := len(st.members)
	if st.q.Limit > 0 && lo+st.q.Limit < hi {
		hi = lo + st.q.Limit
	}
	return st.members[lo:hi]
}

// apply mutates the ordered member list and emits the windowed difference:
// documents entering the window produce add, leaving produce remove,
// repositioning produces changeIndex, and in-place state change of the
// triggering document produces change.
func (t *orderTask) apply(st *orderState, ev rawEvent) {
	// Copy the pre-mutation window: window() returns a view into members,
	// which insert/remove mutate in place.
	before := append([]*document.Document(nil), st.window()...)
	beforeIdx := make(map[string]int, len(before))
	for i, d := range before {
		beforeIdx[d.ID] = i
	}

	switch ev.kind {
	case rawAdd:
		st.insert(ev.doc)
	case rawRemove:
		st.remove(ev.doc.ID)
	case rawChange:
		// Sort keys may have moved: remove the stale entry, reinsert with
		// the new after-image.
		st.remove(ev.doc.ID)
		st.insert(ev.doc)
	}

	after := st.window()
	afterIdx := make(map[string]int, len(after))
	for i, d := range after {
		afterIdx[d.ID] = i
	}

	emit := func(typ EventType, doc *document.Document, idx int) {
		if !st.mask.Has(typ) {
			return
		}
		t.cluster.emit(Notification{
			QueryKey:  ev.queryKey,
			Type:      typ,
			Doc:       doc,
			Index:     idx,
			Seq:       ev.seq,
			EventTime: ev.eventTime,
		})
	}

	// Removals first (stable ordering of emitted events).
	for _, d := range before {
		if _, still := afterIdx[d.ID]; !still {
			emit(EventRemove, d, -1)
		}
	}
	for i, d := range after {
		prev, was := beforeIdx[d.ID]
		switch {
		case !was:
			emit(EventAdd, d, i)
		case prev != i:
			emit(EventChangeIndex, d, i)
		case d.ID == ev.doc.ID && ev.kind == rawChange:
			emit(EventChange, d, i)
		}
	}
}

// insert places doc at its sorted position.
func (st *orderState) insert(doc *document.Document) {
	pos := sort.Search(len(st.members), func(i int) bool {
		return st.q.Less(doc, st.members[i])
	})
	st.members = append(st.members, nil)
	copy(st.members[pos+1:], st.members[pos:])
	st.members[pos] = doc
}

// remove deletes the member with the given id (linear scan; result sets in
// the target workloads are small relative to the change rate).
func (st *orderState) remove(id string) {
	for i, d := range st.members {
		if d.ID == id {
			st.members = append(st.members[:i], st.members[i+1:]...)
			return
		}
	}
}
