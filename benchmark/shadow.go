package main

import (
	"slices"
	"sync"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/workload"
)

// shadow is the benchmark's own model of what the server has
// acknowledged: per document, the writes acked so far with the interval
// during which each was in flight. Staleness is judged against it, never
// against the server's headers or counters.
//
// All times are offsets from the run's start on the benchmark's clock.
type shadow struct {
	bound time.Duration // Δ + slack: older than this and still missed = stale beyond Δ

	mu      sync.Mutex
	docs    map[string]*docHist                       // by record key
	members map[string]map[string]map[string]struct{} // table → tag → ids whose newest acked state carries the tag
}

type docHist struct {
	initial []string // tags in the loaded dataset (nil for documents inserted later)
	writes  []ackedWrite
	latest  int64 // highest acked version
}

type ackedWrite struct {
	version   int64
	tags      []string
	send, ack time.Duration
}

type verdict int

const (
	fresh       verdict = iota
	staleWithin         // misses an acked write, but one no older than the bound
	staleBeyond         // misses a write acked more than the bound before the op was issued
)

func recordKey(table, id string) string { return table + "/" + id }

func newShadow(ds *workload.Dataset, bound time.Duration) *shadow {
	sh := &shadow{
		bound:   bound,
		docs:    map[string]*docHist{},
		members: map[string]map[string]map[string]struct{}{},
	}
	for _, table := range ds.Tables {
		sh.members[table] = map[string]map[string]struct{}{}
		for _, d := range ds.Docs[table] {
			tags := docTags(d)
			sh.docs[recordKey(table, d.ID)] = &docHist{initial: tags, latest: 1}
			sh.setMembership(table, d.ID, nil, tags)
		}
	}
	return sh
}

// docTags extracts the tags array of a document as strings.
func docTags(d *document.Document) []string {
	raw, _ := d.Fields["tags"].([]any)
	tags := make([]string, 0, len(raw))
	for _, t := range raw {
		if s, ok := t.(string); ok {
			tags = append(tags, s)
		}
	}
	return tags
}

func (sh *shadow) setMembership(table, id string, old, cur []string) {
	byTag := sh.members[table]
	for _, t := range old {
		delete(byTag[t], id)
	}
	for _, t := range cur {
		if byTag[t] == nil {
			byTag[t] = map[string]struct{}{}
		}
		byTag[t][id] = struct{}{}
	}
}

// ackWrite records a write the server acknowledged: the after-image's
// version and tags, and when the request was sent and answered.
func (sh *shadow) ackWrite(table, id string, version int64, tags []string, send, ack time.Duration) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	key := recordKey(table, id)
	h := sh.docs[key]
	if h == nil {
		h = &docHist{}
		sh.docs[key] = h
	}
	if version > h.latest {
		sh.setMembership(table, id, h.tagsAt(h.latest), tags)
		h.latest = version
	}
	h.writes = append(h.writes, ackedWrite{version: version, tags: tags, send: send, ack: ack})
}

// tagsAt returns the tags of the given acked version.
func (h *docHist) tagsAt(version int64) []string {
	for i := range h.writes {
		if h.writes[i].version == version {
			return h.writes[i].tags
		}
	}
	return h.initial
}

// ackedBefore returns the highest version acked strictly before t (the
// loaded version 1, or 0 for a not-yet-inserted document, if none).
func (h *docHist) ackedBefore(t time.Duration) int64 {
	var v int64
	if h.initial != nil {
		v = 1
	}
	for i := range h.writes {
		if h.writes[i].ack < t && h.writes[i].version > v {
			v = h.writes[i].version
		}
	}
	return v
}

// settledOver reports the document's tags if no write to it was in
// flight at any point of [from, to]; such a document's membership in
// every tag was constant over the window.
func (h *docHist) settledOver(from, to time.Duration) (tags []string, settled bool) {
	for i := range h.writes {
		if w := &h.writes[i]; w.ack >= from && w.send <= to {
			return nil, false
		}
	}
	return h.tagsAt(h.ackedBefore(from)), true
}

// judgeRead classifies a record read that was issued at `issued` and
// returned `version`.
func (sh *shadow) judgeRead(table, id string, version int64, issued time.Duration) verdict {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h := sh.docs[recordKey(table, id)]
	if h == nil {
		return fresh
	}
	switch {
	case version < h.ackedBefore(issued-sh.bound):
		return staleBeyond
	case version < h.ackedBefore(issued):
		return staleWithin
	}
	return fresh
}

// judgeQuery classifies a tag query issued at `issued`, answered at
// `done`, that returned ids. A document whose membership in the tag was
// constant from (issued − bound) to done must be in or out accordingly;
// one that only held still over [issued, done] makes the answer stale
// within the bound.
func (sh *shadow) judgeQuery(table, tag string, ids []string, issued, done time.Duration) verdict {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	inResult := make(map[string]bool, len(ids))
	for _, id := range ids {
		inResult[id] = true
	}
	worst := fresh
	judge := func(id string) {
		h := sh.docs[recordKey(table, id)]
		if h == nil {
			return
		}
		if tags, ok := h.settledOver(issued-sh.bound, done); ok && slices.Contains(tags, tag) != inResult[id] {
			worst = staleBeyond
		} else if tags, ok := h.settledOver(issued, done); ok && slices.Contains(tags, tag) != inResult[id] && worst == fresh {
			worst = staleWithin
		}
	}
	for _, id := range ids {
		judge(id)
	}
	// A document that was a member throughout the window still is one now.
	for id := range sh.members[table][tag] {
		if !inResult[id] {
			judge(id)
		}
	}
	return worst
}

// ackedVersions returns, per record key, the highest acked version of
// every document written during the run.
func (sh *shadow) ackedVersions() map[string]int64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := map[string]int64{}
	for key, h := range sh.docs {
		if len(h.writes) > 0 {
			out[key] = h.latest
		}
	}
	return out
}
