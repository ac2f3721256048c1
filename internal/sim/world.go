package sim

import (
	"time"

	"quaestor/internal/cache"
	"quaestor/internal/ebf"
	"quaestor/internal/query"
	"quaestor/internal/server"
	"quaestor/internal/ttl"
	"quaestor/internal/workload"
)

// simDoc is the simulator's record model: a version counter, the mutable
// primary tag (updates flip it, driving add/remove membership changes) and
// a fixed secondary tag (whose queries see change events).
type simDoc struct {
	id         string
	version    int64
	primaryTag string
	secondTag  string
	lastWrite  time.Time
}

// simQuery is the ground-truth state of one distinct query: its current
// member set and two version counters used for exact staleness detection.
// membershipVersion bumps on add/remove only; contentVersion additionally
// bumps when a member's state changes — the id-list vs object-list
// invalidation distinction of Section 4.1.
type simQuery struct {
	q                 *query.Query
	key               string
	table             string
	tag               string
	members           map[string]struct{}
	membershipVersion uint64
	contentVersion    uint64
	lastChange        time.Time
	// rep is the representation chosen at the last origin serve; id-list
	// results only invalidate on membership changes (Section 4.1).
	rep ttl.Representation
}

// world holds the simulated deployment: ground-truth data, the real
// coherence/TTL components, the CDN cache and the origin capacity model.
type world struct {
	s   *Sim
	cfg *Config
	ds  *workload.Dataset

	docs     map[string]map[string]*simDoc         // table -> id
	tagIndex map[string]map[string]map[string]bool // table -> tag -> ids
	queries  map[string]*simQuery                  // query key -> state
	byTag    map[string]map[string][]*simQuery     // table -> tag -> queries

	coh    *ebf.Partitioned
	est    *ttl.Estimator
	active *ttl.ActiveList
	cdn    *cache.Cache

	serverBusy time.Time
	cdnBusy    time.Time
}

// cdnRecord / cdnQuery are the CDN's cached payload stand-ins.
type cdnRecord struct{ version int64 }

type cdnQuery struct {
	membershipVersion uint64
	contentVersion    uint64
	rep               ttl.Representation
	memberIDs         []string // id-list only
}

func newWorld(s *Sim, cfg *Config) *world {
	ds := workload.GenerateDataset(cfg.Dataset)
	ebfOpts := &ebf.Options{Bits: cfg.EBFBits, Hashes: cfg.EBFHashes, Clock: s.Clock()}
	ttlCfg := cfg.TTL
	if ttlCfg == nil {
		ttlCfg = &ttl.Config{}
	}
	if ttlCfg.Clock == nil {
		cp := *ttlCfg
		cp.Clock = s.Clock()
		ttlCfg = &cp
	}
	w := &world{
		s:        s,
		cfg:      cfg,
		ds:       ds,
		docs:     map[string]map[string]*simDoc{},
		tagIndex: map[string]map[string]map[string]bool{},
		queries:  map[string]*simQuery{},
		byTag:    map[string]map[string][]*simQuery{},
		coh:      ebf.NewPartitioned(ebfOpts),
		est:      ttl.NewEstimator(ttlCfg),
		active:   ttl.NewActiveList(16, 0, s.Clock()),
		cdn:      cache.New(cache.InvalidationBased, 0, s.Clock()),
	}
	for table, docs := range ds.Docs {
		w.docs[table] = map[string]*simDoc{}
		w.tagIndex[table] = map[string]map[string]bool{}
		w.byTag[table] = map[string][]*simQuery{}
		for _, d := range docs {
			tags, _ := d.Get("tags")
			arr := tags.([]any)
			sd := &simDoc{
				id:         d.ID,
				version:    1,
				primaryTag: arr[0].(string),
				secondTag:  arr[1].(string),
			}
			w.docs[table][d.ID] = sd
			w.indexTag(table, sd.primaryTag, d.ID)
			w.indexTag(table, sd.secondTag, d.ID)
		}
	}
	// Materialize ground-truth state for every distinct workload query so
	// staleness accounting starts exact.
	for _, q := range ds.Queries {
		w.registerQuery(q)
	}
	return w
}

func (w *world) indexTag(table, tag, id string) {
	idx := w.tagIndex[table]
	if idx[tag] == nil {
		idx[tag] = map[string]bool{}
	}
	idx[tag][id] = true
}

func (w *world) unindexTag(table, tag, id string) {
	if set := w.tagIndex[table][tag]; set != nil {
		delete(set, id)
	}
}

// registerQuery creates the ground-truth tracker for a distinct query. The
// workload's queries are tag-containment selections, so the member set is
// read off the tag index.
func (w *world) registerQuery(q *query.Query) *simQuery {
	key := q.Key()
	if sq, ok := w.queries[key]; ok {
		return sq
	}
	field := q.Predicate.(*query.Field)
	tag := field.Value.(string)
	sq := &simQuery{
		q:       q,
		key:     key,
		table:   q.Table,
		tag:     tag,
		members: map[string]struct{}{},
	}
	for id := range w.tagIndex[q.Table][tag] {
		sq.members[id] = struct{}{}
	}
	w.queries[key] = sq
	w.byTag[q.Table][tag] = append(w.byTag[q.Table][tag], sq)
	return sq
}

func recordKey(table, id string) string { return server.RecordKey(table, id) }

// applyUpdate mutates a document (flipping its primary tag), updates the
// ground truth of every affected query, samples the write rate and
// schedules the invalidation wave.
func (w *world) applyUpdate(table, id, newTag string) {
	doc, ok := w.docs[table][id]
	if !ok {
		return
	}
	now := w.s.now
	oldTag := doc.primaryTag
	doc.version++
	doc.lastWrite = now
	rk := recordKey(table, id)
	w.est.ObserveWrite(rk)

	var invalidated []*simQuery
	touch := func(sq *simQuery, membership bool) {
		sq.contentVersion++
		if membership {
			sq.membershipVersion++
		}
		sq.lastChange = now
		// Id-list results survive in-place member changes: only membership
		// transitions invalidate them (the members' own record entries are
		// invalidated separately).
		if membership || sq.rep == ttl.ObjectList {
			invalidated = append(invalidated, sq)
		}
	}
	if oldTag != newTag {
		doc.primaryTag = newTag
		w.unindexTag(table, oldTag, id)
		w.indexTag(table, newTag, id)
		for _, sq := range w.byTag[table][oldTag] {
			if _, had := sq.members[id]; had {
				delete(sq.members, id)
				touch(sq, true) // remove event
			}
		}
		for _, sq := range w.byTag[table][newTag] {
			if _, had := sq.members[id]; !had {
				sq.members[id] = struct{}{}
				touch(sq, true) // add event
			}
		}
		// Queries on the unchanged secondary tag see a change event.
		if doc.secondTag != oldTag && doc.secondTag != newTag {
			for _, sq := range w.byTag[table][doc.secondTag] {
				if _, had := sq.members[id]; had {
					touch(sq, false)
				}
			}
		}
	} else {
		// In-place update: every containing query sees a change event.
		for _, tag := range []string{doc.primaryTag, doc.secondTag} {
			for _, sq := range w.byTag[table][tag] {
				if _, had := sq.members[id]; had {
					touch(sq, false)
				}
			}
		}
	}

	// The invalidation wave: after the detection+propagation delay the EBF
	// flags the keys and the CDN is purged (Figure 7 step 4). The true-TTL
	// sample and EWMA update also happen at detection time.
	w.s.after(w.cfg.InvalidationLatency, func() {
		if w.coh.ReportWrite(rk) {
			w.cdn.Purge(rk)
		}
		for _, sq := range invalidated {
			if w.coh.ReportWrite(sq.key) {
				w.cdn.Purge(sq.key)
			}
			w.active.Invalidated(sq.key, func(actual time.Duration) {
				w.est.ObserveInvalidation(sq.key, actual)
				w.s.met.TrueTTLs.Observe(actual)
			})
		}
	})
}

// serveRecordAtOrigin produces a fresh record response: estimate the TTL,
// report the issued expiration to the EBF and return (version, ttl).
func (w *world) serveRecordAtOrigin(table, id string) (int64, time.Duration) {
	doc := w.docs[table][id]
	if doc == nil {
		return 0, 0
	}
	rk := recordKey(table, id)
	var dur time.Duration
	if w.cfg.Mode != server.ModeUncached {
		dur = w.est.RecordTTL(rk)
		w.coh.ReportRead(rk, dur)
	}
	return doc.version, dur
}

// serveQueryAtOrigin produces a fresh query response: choose the
// representation, estimate the TTL via the Poisson/EWMA model, admit to
// the active list, report to the EBF.
func (w *world) serveQueryAtOrigin(sq *simQuery) time.Duration {
	if w.cfg.Mode == server.ModeUncached {
		return 0
	}
	keys := make([]string, 0, len(sq.members))
	for id := range sq.members {
		keys = append(keys, recordKey(sq.table, id))
	}
	changeRate, dur := w.est.QueryEstimate(sq.key, keys)
	sq.rep = w.cfg.Representation.Choose(len(sq.members), changeRate)
	w.active.Admit(sq.key, dur, keys, sq.rep)
	w.coh.ReportRead(sq.key, dur)
	if sq.rep == ttl.ObjectList {
		// Object-list members land in caches as individual entries with the
		// query's TTL.
		for _, rk := range keys {
			w.coh.ReportRead(rk, dur)
		}
	}
	w.s.met.EstimatedTTLs.Observe(dur)
	return dur
}

// originDelay charges one request against the origin's capacity.
func (w *world) originDelay() time.Duration {
	return queueDelay(w.s.now, &w.serverBusy, w.cfg.ServerRate)
}

// cdnDelay charges one request against the CDN edge capacity.
func (w *world) cdnDelay() time.Duration {
	return queueDelay(w.s.now, &w.cdnBusy, w.cfg.CDNRate)
}

// useCDN reports whether the topology includes an invalidation-based tier.
func (w *world) useCDN() bool {
	return w.cfg.Mode == server.ModeFull || w.cfg.Mode == server.ModeCDNOnly
}

// useClientCache reports whether clients keep local caches + EBF.
func (w *world) useClientCache() bool {
	return w.cfg.Mode == server.ModeFull || w.cfg.Mode == server.ModeClientOnly
}
