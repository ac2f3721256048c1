package client

// The read path: every record read, query and id-list member read goes
// through readThrough, the one owner of the decision whether a cached copy
// may answer, of the 304 and of the cache fill. A record read and a query
// differ only in their readKind and in what they do with the answer.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"quaestor/internal/cache"
	"quaestor/internal/document"
	"quaestor/internal/ebf"
	"quaestor/internal/query"
	"quaestor/internal/server"
	"quaestor/internal/ttl"
)

// ReadOptions tunes one read or query.
type ReadOptions struct {
	Consistency Consistency
	// MaxStaleness bounds this read's provable staleness when
	// BoundStaleness is set (WithMaxStaleness builds the pair). A bound
	// of 0 demands primary-equivalence: the read bypasses every cache
	// tier and is served by the primary. A finite bound lets the read be
	// served by a client-cache copy no older than the bound; a record read
	// may also be served by a replica that can prove it is within the
	// bound, while a query goes to the default endpoint, trusted to be the
	// primary: its answer is not checked against the bound.
	MaxStaleness   time.Duration
	BoundStaleness bool
}

// WithMaxStaleness bounds one read: the response's provable staleness
// must not exceed d. d = 0 demands primary-equivalence — the read
// bypasses every cache tier and is served by the primary.
func WithMaxStaleness(d time.Duration) ReadOptions {
	return ReadOptions{MaxStaleness: d, BoundStaleness: true}
}

// unknownAge is the initial age of a copy from a replica that reported
// no staleness bound: older than any bound a read asks for, and far
// enough below the largest Duration that cache.Entry.Age cannot overflow
// adding the time the copy has been held.
const unknownAge = time.Duration(math.MaxInt64 / 2)

// initialAge is how stale a response under header h already was when it
// arrived: the staleness the serving replica reported, zero from a
// primary, unknownAge from a replica that could not bound it. The browser
// cache keeps it with the copy, so unbounded reads still use such a copy
// and bounded ones never do.
func initialAge(h http.Header) time.Duration {
	ms, _ := responseStaleness(h)
	if ms < 0 {
		return unknownAge
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// floor is the session state one key's reads enforce: the newest version
// the session has seen (monotonic reads), the sequence a replica must have
// applied before it may answer (read-your-writes on the replica tier), and
// whether the session wrote the key since it last read it, in which case
// the next read revalidates end to end.
type floor struct {
	version int64
	seq     uint64
	reval   bool
}

// takeFloor returns key's floor and consumes its pending revalidation: the
// read that revalidates first satisfies it.
func (c *Client) takeFloor(key string) floor {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.floors[key]
	if f.reval {
		c.floors[key] = floor{version: f.version, seq: f.seq}
	}
	return f
}

// observeRead raises key's monotonic floor to a version the session was
// served, and advances the causal frontier.
func (c *Client) observeRead(key string, version int64) {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.floors[key]; version > f.version {
		f.version = version
		c.floors[key] = f
	}
	if now.After(c.lastRead) {
		c.lastRead = now
	}
}

// wrote is read-your-writes: the session wrote table/id (or a transaction
// conflict proved its copy stale), acknowledged under header h (nil: no
// header) with the record's new version (0: not known). Nothing serves the
// write back from the session itself; instead it raises the key's floor,
// which every read enforces. The browser copy goes ("every time a client
// begins an update operation it invalidates the corresponding record from
// its own cache"), and the next read revalidates end to end, so no cache
// tier may answer it. The version raises the monotonic floor against every
// tier, X-Quaestor-Seq the floor a replica must have applied
// (X-Quaestor-Min-Seq), and the write advances the causal frontier like a
// read: a later causal operation must not consult an EBF older than it.
func (c *Client) wrote(table, id string, version int64, h http.Header) {
	key := server.RecordKey(table, id)
	seq, _ := strconv.ParseUint(h.Get(server.HeaderWriteSeq), 10, 64)
	now := c.opts.Clock()
	c.local.Invalidate(server.RecordPath(table, id))
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.floors[key]
	f.reval = true
	f.version = max(f.version, version)
	f.seq = max(f.seq, seq)
	c.floors[key] = f
	if now.After(c.lastRead) {
		c.lastRead = now
	}
}

// ebfVerdict is what the EBF view responsible for a key said about it when
// an operation began: the view, its answer and the generation of the
// snapshot that gave it. The zero value (EBF off, no filter yet) is Clean.
type ebfVerdict struct {
	view  *ebf.ClientView
	state ebf.State
	gen   uint64
}

// checkEBF consults the EBF view responsible for the key.
func (c *Client) checkEBF(key string) ebfVerdict {
	if c.opts.DisableEBF {
		return ebfVerdict{}
	}
	var v *ebf.ClientView
	if c.opts.PerTableEBF {
		v = c.tableView(key)
	} else {
		c.mu.Lock()
		v = c.view
		c.mu.Unlock()
	}
	if v == nil {
		return ebfVerdict{}
	}
	state, gen := v.Lookup(key)
	return ebfVerdict{view: v, state: state, gen: gen}
}

// revalidated whitelists key after a revalidation begun on this verdict
// was answered under header h. The view drops it if its snapshot was
// renewed meanwhile, and carries it across later renewals only when the
// filter's own node answered: a replica may lag behind the filter.
func (vd ebfVerdict) revalidated(key string, h http.Header) {
	if vd.view != nil {
		vd.view.Whitelist(key, vd.gen, h.Get(server.HeaderReplica) == "")
	}
}

// applyConsistencyPre enforces causal consistency for a read of key: when
// the session has observed a read newer than the filter that answers for
// key (the aggregate, or key's table view under PerTableEBF), the read
// could violate causality, so that filter is refreshed first (the paper's
// option 1).
func (c *Client) applyConsistencyPre(level Consistency, key string) {
	if level != Causal || c.opts.DisableEBF {
		return
	}
	table := ""
	c.mu.Lock()
	v := c.view
	if c.opts.PerTableEBF {
		table = ebf.TableOf(key)
		v = c.tableViews[table]
	}
	last := c.lastRead
	c.mu.Unlock()
	if v != nil && last.After(v.GeneratedAt()) {
		// The view is renewed in place; on error the read goes on under
		// the older snapshot rather than failing.
		_, _ = c.renewEBF(c.opts.BaseURL, table, v)
	}
}

// ifNoneMatch makes a GET conditional on prior: the origin answers 304
// with fresh caching headers and no body while prior is still current.
func ifNoneMatch(prior *cache.Entry) http.Header {
	h := http.Header{}
	if prior != nil && prior.ETag != "" {
		h.Set("If-None-Match", prior.ETag)
	}
	return h
}

// readKind is what one kind of read brings to readThrough.
type readKind[T any] struct {
	// fetch sends the GET, no-cache if revalidate, conditional on prior
	// unless nil. A bound > 0 may be met by a replica; else the primary
	// answers.
	fetch func(revalidate bool, prior *cache.Entry, bound time.Duration) (*http.Response, error)
	// decode turns a 200's body into the value.
	decode func(body []byte) (T, error)
	// version is checked against the key's monotonic floor (nil: none).
	version func(T) int64
}

// readThrough answers one read of the resource at path, whose EBF and
// floor key is key: from the browser cache when a copy may answer it,
// else over the network, filling the cache with the answer. h is the
// header the answer came under, nil when the browser cache answered.
func readThrough[T any](c *Client, key, path string, opts ReadOptions, k readKind[T]) (v T, h http.Header, err error) {
	c.applyConsistencyPre(opts.Consistency, key)
	c.maybeRefreshEBF()
	// The staleness bound is the read's own, else the session's (unbounded
	// when not positive). A cached copy meets it if the staleness it
	// arrived with plus the time it has been held is within it.
	bound, bounded := opts.MaxStaleness, opts.BoundStaleness
	if !bounded {
		bound, bounded = c.opts.MaxStaleness, c.opts.MaxStaleness > 0
	}
	admits := func(e *cache.Entry) bool { return !bounded || e.Age(c.opts.Clock()) <= bound }
	atFloor := func(v T, f floor) bool { return k.version == nil || k.version(v) >= f.version }
	served := func(e *cache.Entry) (T, http.Header, error) {
		c.count(&c.stats.CacheHits)
		return e.Value.(T), nil, nil
	}
	// get sends the GET and turns its answer into a value and validator: a
	// 200's body decoded under the ETag it carries, a 304 the prior copy it
	// validated.
	get := func(revalidate bool, prior *cache.Entry) (v T, etag string, h http.Header, err error) {
		resp, err := k.fetch(revalidate, prior, bound)
		if err != nil {
			return v, "", nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return v, "", nil, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			v, err = k.decode(body)
			return v, resp.Header.Get("ETag"), resp.Header, err
		case http.StatusNotModified:
			c.count(&c.stats.NotModified)
			if prior == nil {
				return v, "", nil, errors.New("client: 304 without cached copy")
			}
			return prior.Value.(T), prior.ETag, resp.Header, nil
		}
		return v, "", nil, decodeErrorBytes(resp.StatusCode, body)
	}

	// A bound of 0 is a primary-equivalent read: revalidate end to end so
	// no cache tier may answer. A pending forced revalidation (the
	// session's own write) is consumed by whichever read revalidates first.
	f := c.takeFloor(key)
	vd := c.checkEBF(key)
	revalidate := f.reval || opts.Consistency == Strong || vd.state == ebf.Stale || (bounded && bound == 0)
	// One cache access. A copy that may not answer is the one the refetch
	// revalidates instead of downloading again: the flagged one when
	// revalidating (it stays cached), else the expired one Get evicted.
	var prior *cache.Entry
	fresh := false
	switch {
	case c.opts.DisableCache:
	case revalidate:
		prior, _ = c.local.GetStale(path)
	default:
		prior, fresh = c.local.Get(path)
	}
	if fresh && admits(prior) && atFloor(prior.Value.(T), f) {
		if vd.state == ebf.Carried {
			c.count(&c.stats.WhitelistCarried)
		}
		return served(prior)
	}
	v, etag, h, err := get(revalidate, prior)
	if err != nil {
		return v, nil, err
	}
	if revalidate {
		vd.revalidated(key, h)
	}
	// Monotonic reads: a cache tier may have answered with an older
	// version than this session had seen when the read began; fall back to
	// the newer local copy or force a revalidation ("if a read returns an
	// older version, the client resorts to the cached version if it is not
	// contained in the EBF or triggers a revalidation otherwise").
	if !atFloor(v, f) {
		c.count(&c.stats.MonotonicRetries)
		if held, ok := c.local.GetStale(path); ok && c.checkEBF(key).state != ebf.Stale &&
			atFloor(held.Value.(T), f) && admits(held) {
			return served(held)
		}
		// Unconditional: a 304 would hand back the copy that just failed.
		if v, etag, h, err = get(true, nil); err != nil {
			return v, nil, err
		}
		vd.revalidated(key, h)
	}
	if lifetime := cache.FreshnessLifetime(h, cache.ExpirationBased); lifetime > 0 && !c.opts.DisableCache {
		c.local.PutAged(path, v, etag, lifetime, initialAge(h))
	}
	return v, h, nil
}

// Read fetches a record with the session's consistency guarantees.
func (c *Client) Read(table, id string) (*document.Document, error) {
	return c.ReadWith(table, id, ReadOptions{})
}

// ReadWith fetches a record with per-operation consistency.
func (c *Client) ReadWith(table, id string, opts ReadOptions) (*document.Document, error) {
	c.count(&c.stats.Reads)
	key, path := server.RecordKey(table, id), server.RecordPath(table, id)
	doc, h, err := readThrough(c, key, path, opts, readKind[*document.Document]{
		fetch: func(revalidate bool, prior *cache.Entry, bound time.Duration) (*http.Response, error) {
			if bound > 0 {
				if resp := c.fetchRecordRouted(path, key, revalidate, bound, prior); resp != nil {
					return resp, nil
				}
			}
			return c.do(c.http, http.MethodGet, path, nil, revalidate, id, ifNoneMatch(prior))
		},
		decode: func(body []byte) (*document.Document, error) {
			var doc document.Document
			return &doc, json.Unmarshal(body, &doc)
		},
		version: func(d *document.Document) int64 { return d.Version },
	})
	if err != nil {
		return nil, err
	}
	c.countTier(h)
	c.observeRead(key, doc.Version)
	return doc, nil
}

// Result is a query response assembled by the SDK. The browser cache
// holds an object list whole; an id list it holds as the list alone, and
// every answer reads the members through their own entries, so a member
// is never older than a read of that record would accept. Docs and IDs
// are shared with the browser cache and read-only (document.Document's
// ownership rule); appending to them leaves the cache alone.
type Result struct {
	Docs           []*document.Document
	IDs            []string
	Representation ttl.Representation
	// RoundTrips counts HTTP exchanges used to assemble the result
	// (id-lists may need per-record fetches).
	RoundTrips int
}

// Query executes a query with default consistency.
func (c *Client) Query(q *query.Query) (*Result, error) {
	return c.QueryWith(q, ReadOptions{})
}

// QueryWith executes a query with per-operation consistency and the
// staleness bound of opts or the session. Object-list results return
// documents directly and fill their members' entries; id-list results are
// assembled by reading each record with the same options.
func (c *Client) QueryWith(q *query.Query, opts ReadOptions) (*Result, error) {
	c.count(&c.stats.Queries)
	key, path := q.Key(), QueryPath(q)
	kind := readKind[*Result]{
		fetch: func(revalidate bool, prior *cache.Entry, _ time.Duration) (*http.Response, error) {
			return c.do(c.http, http.MethodGet, path, nil, revalidate, "", ifNoneMatch(prior))
		},
		decode: decodeResult,
	}
	cached, h, err := readThrough(c, key, path, opts, kind)
	if err != nil {
		return nil, err
	}
	res, err := c.complete(q.Table, cached, h, opts)
	// A member of a list the browser cache answered is gone: the list is
	// older than the delete. Fetch it once more end to end; the answer may
	// come back in either representation.
	var se *StatusError
	if h == nil && errors.As(err, &se) && se.Status == http.StatusNotFound {
		again := opts
		again.Consistency = Strong
		if cached, h, err = readThrough(c, key, path, again, kind); err != nil {
			return nil, err
		}
		res, err = c.complete(q.Table, cached, h, opts)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// complete finishes a query answer given under header h (nil: the browser
// cache answered): an object list fills its members' entries when it came
// over the network, an id list reads its members. It works on a shallow
// copy of cached, which the browser cache may hold: assembling appends to
// Docs and counts RoundTrips.
func (c *Client) complete(table string, cached *Result, h http.Header, opts ReadOptions) (*Result, error) {
	res := *cached
	res.Docs = slices.Clip(res.Docs)
	if res.Representation == ttl.IDList {
		return &res, c.assemble(table, &res, opts)
	}
	if h != nil {
		c.fillMembers(table, res.Docs, h)
	}
	return &res, nil
}

// decodeResult decodes a 200 query response. An id list keeps no
// documents: its members are read when the list is assembled.
func decodeResult(body []byte) (*Result, error) {
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return nil, err
	}
	res := &Result{IDs: qr.IDs, RoundTrips: 1, Representation: ttl.ObjectList, Docs: qr.Docs}
	if qr.Representation == ttl.IDList.String() {
		res.Representation, res.Docs = ttl.IDList, nil
	}
	return res, nil
}

// assemble reads every member of an id list with the query's options.
func (c *Client) assemble(table string, res *Result, opts ReadOptions) error {
	for _, id := range res.IDs {
		doc, err := c.ReadWith(table, id, opts)
		if err != nil {
			return fmt.Errorf("client: assembling id-list member %s: %w", id, err)
		}
		res.Docs = append(res.Docs, doc)
		res.RoundTrips++
	}
	return nil
}

// fillMembers raises the monotonic floors of an object list answered
// under header h and makes its members individual browser-cache entries,
// giving record reads hits "by side effect" — under the TTL of this
// response, a 304 included — unless the same version is already held for
// longer: a record read with a 300 s TTL is not cut to the few seconds of
// a query that returns it.
func (c *Client) fillMembers(table string, docs []*document.Document, h http.Header) {
	lifetime, age := cache.FreshnessLifetime(h, cache.ExpirationBased), initialAge(h)
	expires := c.opts.Clock().Add(lifetime)
	for _, d := range docs {
		c.observeRead(server.RecordKey(table, d.ID), d.Version)
		if c.opts.DisableCache || lifetime <= 0 {
			continue
		}
		member, tag := server.RecordPath(table, d.ID), server.ETagFor(d.Version)
		if held, ok := c.local.GetStale(member); !ok || held.ETag != tag || held.ExpiresAt.Before(expires) {
			c.local.PutAged(member, d, tag, lifetime, age)
		}
	}
}
