// Package client implements the Quaestor client SDK (Figure 3, "SDK (Data
// API)"): the browser-side component that fetches the Expiring Bloom
// Filter, checks every read and query against it, promotes stale reads to
// revalidations, and layers session consistency guarantees (read-your-
// writes, monotonic reads, causal and strong consistency on opt-in) on top
// of plain HTTP caching.
//
// Read-your-writes goes through the origin: the session keeps no copy of
// what it wrote. An acknowledged write (see Client.wrote) drops the browser
// copy and makes the key's next read revalidate end to end, raises the
// monotonic floor to the acknowledged version where the write returns one,
// and raises the sequence a replica must have applied before it may answer
// a bounded read. The price is that read: on the benchmark's
// cached_read_heavy cell it adds about 6 % to the origin requests per
// operation.
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"quaestor/internal/cache"
	"quaestor/internal/cluster"
	"quaestor/internal/document"
	"quaestor/internal/ebf"
	"quaestor/internal/query"
	"quaestor/internal/server"
	"quaestor/internal/store"
)

// Consistency selects the per-operation guarantee (Figure 4). Δ-atomicity,
// monotonic reads/writes and read-your-writes always hold; causal and
// strong consistency are opt-in with a performance penalty.
type Consistency int

const (
	// DeltaAtomic is the default: staleness bounded by the EBF refresh
	// interval.
	DeltaAtomic Consistency = iota
	// Causal additionally refreshes the EBF whenever a previously observed
	// read is newer than the filter, so causally dependent reads are
	// ordered.
	Causal
	// Strong turns the operation into an explicit revalidation (cache miss
	// at all levels — linearizable).
	Strong
)

// Options configures a client session.
type Options struct {
	// RefreshInterval is Δ: the maximum tolerated EBF age. The first
	// request after Δ seconds refreshes the filter. Default 1s (the
	// evaluation's "Bloom filters were refreshed every second").
	RefreshInterval time.Duration
	// CacheCapacity bounds the simulated browser cache entries (0 =
	// unlimited).
	CacheCapacity int
	// Transport performs HTTP exchanges; defaults to http.DefaultTransport.
	// Use NewHandlerTransport to wire an in-process tier chain.
	Transport http.RoundTripper
	// BaseURL prefixes request paths, e.g. "http://origin". With a handler
	// transport any syntactically valid host works.
	BaseURL string
	// Clock supplies time (default time.Now).
	Clock func() time.Time
	// DisableEBF skips filter fetching and staleness checks entirely — the
	// static-TTL straw man of Section 3 and the "CDN only" baseline client.
	DisableEBF bool
	// PerTableEBF fetches one filter per table (lazily, on first touch)
	// instead of the aggregate, trading extra fetches for a lower false
	// positive rate (Section 3.3).
	PerTableEBF bool
	// DisableCache bypasses the local browser cache (the uncached
	// baseline).
	DisableCache bool
	// ReplicaEndpoints lists replica base URLs bounded reads are routed
	// across (see routing.go). Empty = every read goes to the primary.
	ReplicaEndpoints []string
	// DiscoverReplicas fetches the advertised read topology
	// (/v1/cluster/replicas) at Dial time, best-effort: a deployment that
	// advertises nothing (or an older server without the endpoint) just
	// leaves routing off.
	DiscoverReplicas bool
	// MaxStaleness, when > 0, bounds every record read and query by
	// default (overridable per operation via ReadOptions/WithMaxStaleness).
	// Zero keeps them unbounded — the SDK's original Δ-atomic behavior.
	MaxStaleness time.Duration
	// RequestTimeout bounds every request/response exchange end to end
	// (connect through body close). Zero picks the 30s default; negative
	// disables the bound. Streamed queries (QueryStream) are exempt: a
	// long-lived NDJSON cursor's lifetime belongs to the caller.
	RequestTimeout time.Duration
}

// defaultRequestTimeout bounds request/response exchanges when the
// caller does not choose: generous enough for a large materialized
// query, small enough that a wedged endpoint cannot park a client
// goroutine forever (the ctxdeadline lint invariant).
const defaultRequestTimeout = 30 * time.Second

func (o *Options) withDefaults() Options {
	out := Options{
		RefreshInterval: time.Second,
		Transport:       http.DefaultTransport,
		BaseURL:         "http://quaestor",
		Clock:           time.Now,
		RequestTimeout:  defaultRequestTimeout,
	}
	if o == nil {
		return out
	}
	cp := *o
	if cp.RefreshInterval <= 0 {
		cp.RefreshInterval = out.RefreshInterval
	}
	if cp.Transport == nil {
		cp.Transport = out.Transport
	}
	if cp.BaseURL == "" {
		cp.BaseURL = out.BaseURL
	}
	if cp.Clock == nil {
		cp.Clock = out.Clock
	}
	if cp.RequestTimeout == 0 {
		cp.RequestTimeout = defaultRequestTimeout
	} else if cp.RequestTimeout < 0 {
		cp.RequestTimeout = 0
	}
	return cp
}

// Stats counts client-side activity.
type Stats struct {
	Reads            uint64
	Queries          uint64
	Writes           uint64
	CacheHits        uint64 // served from the local browser cache
	NetworkRequests  uint64
	Revalidations    uint64 // requests sent with no-cache due to the EBF
	EBFRefreshes     uint64
	NotModified      uint64 // 304 responses
	MonotonicRetries uint64 // re-reads forced by monotonic-read tracking
	// ReplicaResponses counts responses annotated with X-Quaestor-Replica
	// (served by a replica rather than the primary); MaxStalenessMs is
	// the largest X-Quaestor-Staleness-Ms bound observed among them — the
	// session's worst-case replica lag, and the signal a future
	// read-routing layer admission-bounds against.
	ReplicaResponses uint64
	MaxStalenessMs   float64
	// ShardMapRefreshes counts /v1/cluster/map fetches (first contact with
	// a multi-shard node, plus one per observed epoch change);
	// ShardRetries counts point ops re-sent because a refreshed map moved
	// the record to a different node; PrimaryRedirects counts writes
	// re-sent to the advertised primary after a replica bounced them 503.
	ShardMapRefreshes uint64
	ShardRetries      uint64
	PrimaryRedirects  uint64
	// ReadsByTier attributes every served record read to the tier that
	// answered it: primary, replica, or the client's own browser cache
	// (the record reads among CacheHits). StalenessRetries counts bounded
	// reads re-routed after a replica rejected (412) or answered over
	// bound; EBFPiggybacks counts filter refreshes triggered by a
	// replica-served response advertising a newer EBF generation.
	ReadsByTier      TierCounts
	StalenessRetries uint64
	EBFPiggybacks    uint64
	// EndpointEvictions counts replica endpoints taken out of routing
	// after evictAfterFailures consecutive connection failures (they are
	// re-probed with exponential backoff); FailoverRetries counts ops
	// re-sent to a surviving node after the routed endpoint failed at the
	// transport level — the client half of a primary-death cutover.
	EndpointEvictions uint64
	FailoverRetries   uint64
	// WhitelistCarried counts reads and queries served from the local
	// cache although the filter flags the key, on a revalidation made
	// before the last EBF renewal and carried across it — each one a
	// revalidation the paper's clear-on-renewal would have sent.
	// RenewalsUncovered counts renewals that had to clear the whitelist
	// instead (the origin's flag log did not cover the gap, or the filter
	// came from another node or an origin that keeps no log).
	WhitelistCarried  uint64
	RenewalsUncovered uint64
}

// ReplicaMeta is the replica annotation parsed off one response's
// staleness headers. The zero value (Replica false) means the response
// came from a primary.
type ReplicaMeta struct {
	// Replica reports whether the serving node identified itself as a
	// replica; State is its lifecycle state (X-Quaestor-Replica).
	Replica bool
	State   string
	// StalenessMs is the replica's reported staleness bound
	// (X-Quaestor-Staleness-Ms); -1 when the replica has not yet bounded
	// its staleness (e.g. still bootstrapping).
	StalenessMs float64
	// LagSeq is the replica's sequence lag behind its primary
	// (X-Quaestor-Replica-Lag); 0 when caught up.
	LagSeq uint64
}

// Client is one browser session against a Quaestor deployment.
type Client struct {
	opts Options
	// http serves request/response exchanges, bounded end to end by
	// Options.RequestTimeout; stream serves QueryStream's long-lived
	// NDJSON cursors, whose lifetime the caller owns via DocStream.Close.
	http   *http.Client
	stream *http.Client
	local  *cache.Cache // browser cache

	mu          sync.Mutex
	view        *ebf.ClientView            // aggregate-filter mode
	tableViews  map[string]*ebf.ClientView // per-table mode
	floors      map[string]floor           // per-key session floors (read.go)
	lastRead    time.Time                  // newest read timestamp (causal)
	lastReplica ReplicaMeta                // newest replica annotation observed
	smap        *cluster.ShardMap          // cached shard map (nil until a node stamps an epoch or a failover refresh)
	// knownPrimary is the newest advertised primary base URL (from
	// X-Quaestor-Primary headers or ReplicaSetResponse.Primary): the
	// write-redirect target when the routed endpoint is gone.
	knownPrimary string
	stats        Stats

	// Staleness-bounded read routing state (routing.go).
	replicas      []*endpointState // replica endpoints, with observed health
	rng           *rand.Rand       // power-of-two-choices source
	lastPiggyback time.Time        // last piggyback-triggered EBF refresh
}

// Dial connects to a Quaestor deployment and fetches the initial EBF
// ("Upon connection, the client gets a piggybacked EBF").
func Dial(opts *Options) (*Client, error) {
	o := opts.withDefaults()
	c := &Client{
		opts: o,
		http: &http.Client{Transport: o.Transport, Timeout: o.RequestTimeout},
		// A streamed query's body outlives any sane request timeout; the
		// cursor is closed by the consumer, and a dead peer surfaces as a
		// transport read error.
		//lint:quaestor ctxdeadline -- QueryStream cursors are long-lived by design; lifetime is owned by DocStream.Close, not a deadline
		stream: &http.Client{Transport: o.Transport},
		local:  cache.New(cache.ExpirationBased, o.CacheCapacity, o.Clock),
		floors: map[string]floor{},
		rng:    rand.New(rand.NewSource(o.Clock().UnixNano())),
	}
	c.SetReplicaEndpoints(o.ReplicaEndpoints...)
	if o.DiscoverReplicas {
		// Best-effort: a deployment that advertises no topology leaves
		// routing off, every read stays on the default endpoint.
		_ = c.RefreshReplicaSet()
	}
	if o.PerTableEBF {
		c.tableViews = map[string]*ebf.ClientView{}
	} else if !o.DisableEBF {
		if err := c.refreshEBF(); err != nil {
			return nil, fmt.Errorf("client: initial EBF fetch: %w", err)
		}
	}
	return c, nil
}

// Stats returns a copy of the client's counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// count increments one of the client's counters.
func (c *Client) count(n *uint64) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

// EBFAge returns the current filter age (the achieved Δ bound); zero when
// the EBF is disabled.
func (c *Client) EBFAge() time.Duration {
	c.mu.Lock()
	v := c.view
	c.mu.Unlock()
	if v == nil {
		return 0
	}
	return v.Age(c.opts.Clock())
}

// refreshEBF renews the aggregate filter from the default endpoint.
func (c *Client) refreshEBF() error {
	c.mu.Lock()
	v := c.view
	c.mu.Unlock()
	v, err := c.renewEBF(c.opts.BaseURL, "", v)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.view = v
	c.mu.Unlock()
	return nil
}

// maybeRefreshEBF implements the freshness policy: the first operation
// after Δ seconds refreshes the filter. Per-table views refresh lazily in
// checkEBF instead.
func (c *Client) maybeRefreshEBF() {
	if c.opts.DisableEBF || c.opts.PerTableEBF {
		return
	}
	c.mu.Lock()
	v := c.view
	c.mu.Unlock()
	if v == nil || v.Age(c.opts.Clock()) >= c.opts.RefreshInterval {
		_ = c.refreshEBF()
	}
}

// do executes one exchange on hc — the bounded default for
// request/response exchanges, or the timeout-free stream client for
// long-lived NDJSON cursors — with extra request headers (a GET's
// If-None-Match rides here). revalidate adds Cache-Control: no-cache so
// every intermediary bypasses (and refreshes) its cached copy. Point ops
// (docID != "") go to the owning shard's node when a multi-node shard map
// is cached — otherwise any node works: a single-process cluster routes
// internally. Three recovery paths ride on top of the plain exchange:
//
//   - A response stamped with an unseen X-Quaestor-Shard-Epoch means the
//     cached shard map is stale. The map is refetched, and if the new map
//     moves the record to a different node the op is retried once there.
//   - A write bounced 503 by a read-only replica redirects once to the
//     primary the replica advertises via X-Quaestor-Primary.
//   - A transport-level failure (the routed node is gone) refreshes the
//     topology from a surviving endpoint and retries once wherever the
//     rewritten map or the advertised primary points — the client half
//     of an automatic failover cutover.
func (c *Client) do(hc *http.Client, method, path string, body []byte, revalidate bool, docID string, extra http.Header) (*http.Response, error) {
	base := c.nodeFor(docID)
	resp, err := c.send(hc, base, method, path, body, revalidate, extra)
	if err != nil {
		nb, ok := c.failoverBase(base, docID)
		if !ok {
			return nil, err
		}
		c.count(&c.stats.FailoverRetries)
		base = nb
		if resp, err = c.send(hc, base, method, path, body, revalidate, extra); err != nil {
			return nil, err
		}
	}
	if c.observeShardEpoch(resp.Header, base) && docID != "" {
		if nb := c.nodeFor(docID); nb != base {
			closeBody(resp)
			c.count(&c.stats.ShardRetries)
			base = nb
			resp, err = c.send(hc, base, method, path, body, revalidate, extra)
			if err != nil {
				return nil, err
			}
		}
	}
	if resp.StatusCode == http.StatusServiceUnavailable && method != http.MethodGet {
		if primary := resp.Header.Get(server.HeaderPrimary); primary != "" && primary != base {
			closeBody(resp)
			c.count(&c.stats.PrimaryRedirects)
			return c.send(hc, primary, method, path, body, revalidate, extra)
		}
	}
	return resp, nil
}

// send performs one raw exchange against an explicit base URL, with extra
// request headers (conditional GETs, the bounded-read admission headers).
// Every exchange the client makes goes through here, so each is counted
// in NetworkRequests once and its replica headers are observed.
func (c *Client) send(hc *http.Client, base, method, path string, body []byte, revalidate bool, extra http.Header) (*http.Response, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rdr)
	if err != nil {
		return nil, err
	}
	if revalidate {
		req.Header.Set("Cache-Control", "no-cache")
	}
	for k, vs := range extra {
		req.Header[k] = vs
	}
	c.mu.Lock()
	c.stats.NetworkRequests++
	if revalidate {
		c.stats.Revalidations++
	}
	c.mu.Unlock()
	resp, err := hc.Do(req)
	if err == nil {
		c.observeReplicaHeaders(resp.Header)
	}
	return resp, err
}

// nodeFor picks the endpoint for a point op: the owning shard's node when
// the cached map names per-shard nodes, the default endpoint otherwise.
func (c *Client) nodeFor(docID string) string {
	if docID == "" {
		return c.opts.BaseURL
	}
	c.mu.Lock()
	m := c.smap
	c.mu.Unlock()
	if m == nil || len(m.Nodes) == 0 {
		return c.opts.BaseURL
	}
	if u := m.NodeURL(m.Shard(docID)); u != "" {
		return u
	}
	return c.opts.BaseURL
}

// observeShardEpoch folds one response's shard-map epoch into the cached
// map. It reports true only when a previously cached map turned out
// stale and the refetch succeeded — the signal that routing may have
// been wrong and the op should be retried against the new owner. First
// contact with a multi-shard node fetches the map but needs no retry:
// the server answered by proxying internally. The refetch prefers the
// node that served the response: it provably holds the new epoch, while
// the default endpoint may be mid-failover (or the node that just died).
func (c *Client) observeShardEpoch(h http.Header, base string) bool {
	v := h.Get(server.HeaderShardEpoch)
	if v == "" {
		return false
	}
	epoch, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return false
	}
	c.mu.Lock()
	known := c.smap != nil
	current := uint64(0)
	if known {
		current = c.smap.Epoch
	}
	c.mu.Unlock()
	if known && epoch == current {
		return false
	}
	if err := c.refreshShardMap(base); err != nil {
		return false
	}
	return known && epoch != current
}

// RefreshShardMap fetches /v1/cluster/map and caches it. Called
// automatically on first contact with a multi-shard node and on epoch
// changes; exported so deployments with per-shard endpoints can prime
// client-side routing before the first point op. When the default
// endpoint is unreachable (it may be the failed primary), every other
// endpoint the client knows is tried.
func (c *Client) RefreshShardMap() error {
	return c.refreshShardMap("")
}

func (c *Client) refreshShardMap(preferred string) error {
	var lastErr error
	for _, base := range c.mapSources(preferred) {
		if err := c.refreshShardMapFrom(base); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("client: no endpoint to fetch the shard map from")
	}
	return lastErr
}

// mapSources lists the bases to try for topology fetches, preferred (the
// node whose response revealed the change) first, then the default
// endpoint, the last advertised primary, the replica set, and the cached
// map's nodes.
func (c *Client) mapSources(preferred string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	add := func(u string) {
		if u != "" && !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	add(preferred)
	add(c.opts.BaseURL)
	add(c.knownPrimary)
	for _, ep := range c.replicas {
		add(ep.url)
	}
	if c.smap != nil {
		for _, u := range c.smap.Nodes {
			add(u)
		}
	}
	return out
}

func (c *Client) refreshShardMapFrom(base string) error {
	resp, err := c.send(c.http, base, http.MethodGet, "/v1/cluster/map", nil, false, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	m, err := cluster.ParseShardMap(data)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.smap = m
	c.stats.ShardMapRefreshes++
	c.mu.Unlock()
	return nil
}

// failoverBase picks where to retry an op whose routed endpoint failed
// at the transport level: the topology is refreshed from the first
// surviving endpoint (after a failover the shard map's node list and the
// replica set have both been rewritten), then the op goes to the
// refreshed map's owner for the record, the advertised primary, or the
// surviving endpoint itself — whose 503 redirect still lands writes on
// the right node. ok is false when no endpoint besides the dead one is
// known (or none answers): the caller surfaces the original error.
func (c *Client) failoverBase(dead, docID string) (string, bool) {
	var live string
	for _, base := range c.mapSources("") {
		if base == dead {
			continue
		}
		if err := c.refreshShardMapFrom(base); err != nil {
			continue
		}
		_ = c.refreshReplicaSetFrom(base)
		live = base
		break
	}
	if live == "" {
		return "", false
	}
	if docID != "" {
		if nb := c.nodeFor(docID); nb != dead && nb != "" {
			return nb, true
		}
	}
	c.mu.Lock()
	kp := c.knownPrimary
	c.mu.Unlock()
	if kp != "" && kp != dead {
		return kp, true
	}
	return live, true
}

// ShardMap returns the cached cluster topology (nil until a multi-shard
// node has been contacted, a failover refreshed it, or RefreshShardMap
// was called).
func (c *Client) ShardMap() *cluster.ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.smap
}

// observeReplicaHeaders folds one response's staleness annotation into
// the per-read metadata and the max-observed-staleness stat. Responses
// without X-Quaestor-Replica (primary-served) are ignored — the last
// replica annotation stays current, so LastReplicaMeta describes the
// most recent replica-served exchange.
func (c *Client) observeReplicaHeaders(h http.Header) {
	// The advertised primary rides on every follower- or fenced-node
	// response; remember the newest as the redirect target of last
	// resort (failoverBase).
	if p := h.Get(server.HeaderPrimary); p != "" {
		c.mu.Lock()
		c.knownPrimary = p
		c.mu.Unlock()
	}
	state := h.Get(server.HeaderReplica)
	if state == "" {
		return
	}
	ms, _ := responseStaleness(h)
	meta := ReplicaMeta{Replica: true, State: state, StalenessMs: ms}
	if v := h.Get(server.HeaderReplicaLag); v != "" {
		if lag, err := strconv.ParseUint(v, 10, 64); err == nil {
			meta.LagSeq = lag
		}
	}
	c.mu.Lock()
	c.lastReplica = meta
	c.stats.ReplicaResponses++
	// StalenessMs == -1 means the replica never proved a bound; unknown
	// must not fold into the max as if it were a magnitude.
	if meta.StalenessMs >= 0 && meta.StalenessMs > c.stats.MaxStalenessMs {
		c.stats.MaxStalenessMs = meta.StalenessMs
	}
	c.mu.Unlock()
}

// LastReplicaMeta returns the replica annotation of the most recent
// replica-served response (zero value until one is observed). Together
// with Stats.MaxStalenessMs this is the admission-bound groundwork for
// routing reads across replicas by staleness.
func (c *Client) LastReplicaMeta() ReplicaMeta {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastReplica
}

// QueryPath renders the deterministic REST path for a query; identical
// queries from any client map to the same cache entry.
func QueryPath(q *query.Query) string {
	params := url.Values{}
	if filterJSON := predicateJSON(q.Predicate); filterJSON != "" {
		params.Set("q", filterJSON)
	}
	if len(q.OrderBy) > 0 {
		var parts []string
		for _, k := range q.OrderBy {
			if k.Desc {
				parts = append(parts, "-"+k.Path)
			} else {
				parts = append(parts, k.Path)
			}
		}
		params.Set("sort", strings.Join(parts, ","))
	}
	if q.Offset > 0 {
		params.Set("offset", strconv.Itoa(q.Offset))
	}
	if q.Limit > 0 {
		params.Set("limit", strconv.Itoa(q.Limit))
	}
	path := "/v1/db/" + q.Table
	if enc := params.Encode(); enc != "" {
		path += "?" + enc
	}
	return path
}

// DocStream iterates a streamed NDJSON query response, decoding one
// document per Next call so arbitrarily large result sets never
// materialize client-side either. Close releases the connection; it is
// safe after a partial read.
type DocStream struct {
	body io.ReadCloser
	dec  *json.Decoder
	err  error
}

// Next returns the next document, or io.EOF when the stream is exhausted.
// Any error is sticky.
func (s *DocStream) Next() (*document.Document, error) {
	if s.err != nil {
		return nil, s.err
	}
	var doc document.Document
	if err := s.dec.Decode(&doc); err != nil {
		s.err = err
		return nil, err
	}
	return &doc, nil
}

// Close releases the underlying response body.
func (s *DocStream) Close() error { return s.body.Close() }

// QueryStream executes a query against the streamed NDJSON endpoint
// (?stream=1). Streamed queries bypass the browser cache and the EBF on
// purpose: the response is no-store end to end, so there is no cached
// copy whose staleness could need checking. Use it for large result sets;
// Query remains the cacheable path.
func (c *Client) QueryStream(q *query.Query) (*DocStream, error) {
	c.count(&c.stats.Queries)

	path := QueryPath(q)
	if strings.Contains(path, "?") {
		path += "&stream=1"
	} else {
		path += "?stream=1"
	}
	resp, err := c.do(c.stream, http.MethodGet, path, nil, false, "", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return &DocStream{body: resp.Body, dec: json.NewDecoder(resp.Body)}, nil
}

// Insert creates a record.
func (c *Client) Insert(table string, doc *document.Document) error {
	return c.write(http.MethodPost, "/v1/db/"+table, table, doc.ID, doc, http.StatusCreated, nil)
}

// Put upserts a record.
func (c *Client) Put(table string, doc *document.Document) error {
	return c.write(http.MethodPut, server.RecordPath(table, doc.ID), table, doc.ID, doc, http.StatusOK, nil)
}

// Update applies a partial update, returning the server's after-image.
func (c *Client) Update(table, id string, spec store.UpdateSpec) (*document.Document, error) {
	var doc document.Document
	if err := c.write(http.MethodPatch, server.RecordPath(table, id), table, id, spec, http.StatusOK, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Delete removes a record.
func (c *Client) Delete(table, id string) error {
	return c.write(http.MethodDelete, server.RecordPath(table, id), table, id, nil, http.StatusNoContent, nil)
}

// write sends one record write (body nil: none) and, once the origin
// acknowledges it with status want, hands the acknowledgement to wrote.
// after, when set, receives the acknowledged after-image, whose version
// then raises the monotonic floor.
func (c *Client) write(method, path, table, id string, body any, want int, after *document.Document) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return err
		}
	}
	resp, err := c.do(c.http, method, path, data, false, id, nil)
	if err != nil {
		return err
	}
	defer closeBody(resp)
	if resp.StatusCode != want {
		return decodeError(resp)
	}
	var version int64
	if after != nil {
		if err := json.NewDecoder(resp.Body).Decode(after); err != nil {
			return err
		}
		version = after.Version
	}
	c.count(&c.stats.Writes)
	c.wrote(table, id, version, resp.Header)
	return nil
}

// CreateTable provisions a table.
func (c *Client) CreateTable(table string) error {
	resp, err := c.do(c.http, http.MethodPost, "/v1/tables/"+table, nil, false, "", nil)
	if err != nil {
		return err
	}
	defer closeBody(resp)
	if resp.StatusCode != http.StatusCreated {
		return decodeError(resp)
	}
	return nil
}

// maxDrain bounds what closeBody reads of a body nobody wants: more than
// any acknowledgement or error body, so the connection goes back to the
// pool; a larger body costs the connection instead of the reading.
const maxDrain = 64 << 10

// closeBody closes resp's body after reading what is left of it, up to
// maxDrain: the transport reuses a connection only once its response
// was read to the end, so a write whose acknowledgement went unread
// would otherwise cost a new connection each time.
func closeBody(resp *http.Response) {
	_, _ = io.CopyN(io.Discard, resp.Body, maxDrain) // a failed read just loses the connection
	resp.Body.Close()
}

func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(resp.Body)
	return decodeErrorBytes(resp.StatusCode, body)
}

// StatusError is the server answering a request with an error status:
// the status code and the message of its {"error": …} body, if it had one.
type StatusError struct {
	Status  int
	Message string
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("client: server returned %d: %s", e.Status, e.Message)
	}
	return fmt.Sprintf("client: server returned %d", e.Status)
}

func decodeErrorBytes(status int, body []byte) error {
	var payload struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &payload) != nil {
		payload.Error = ""
	}
	return &StatusError{Status: status, Message: payload.Error}
}

// predicateJSON renders a Predicate back into filter-document JSON for URL
// construction. Only predicates built via query builders and ParseFilter
// round-trip; the zero predicate renders empty.
func predicateJSON(p query.Predicate) string {
	m := query.FilterDocument(p)
	if m == nil {
		return ""
	}
	data, err := json.Marshal(m)
	if err != nil {
		return ""
	}
	return string(data)
}
