package client

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"quaestor/internal/cache"
	"quaestor/internal/server"
)

// Staleness-bounded read routing (the paper's replica tier as part of
// the cache hierarchy): a client configured with replica endpoints
// spreads bounded record reads across them by power-of-two-choices over
// observed staleness and latency. Every routed request carries the
// bound (X-Quaestor-Max-Staleness-Ms) and, after a write to the same
// key, the read-your-writes floor (X-Quaestor-Min-Seq); a replica that
// cannot prove it meets either answers 412 and the client retries once
// on another replica, then falls back to the primary — a bounded read
// never silently returns an over-bound response.

// replicaPenalty is how long a replica is deprioritized after a
// rejection it could not even bound; long enough to drain a transient
// fault, short enough to rediscover a recovered replica quickly.
const replicaPenalty = 100 * time.Millisecond

// Endpoint liveness: after evictAfterFailures consecutive connection
// failures an endpoint is treated as down and taken out of routing; it
// is re-probed with exponential backoff (evictBackoffBase doubling up to
// evictBackoffMax) instead of the flat transient penalty, so a dead
// replica stops absorbing one doomed attempt per read while a recovered
// one is rediscovered within a bounded window.
const (
	evictAfterFailures = 3
	evictBackoffBase   = 500 * time.Millisecond
	evictBackoffMax    = 30 * time.Second
)

// unknownStalenessPenaltyMs ranks an endpoint whose staleness is unknown
// (-1: bootstrapping, or cut off from its primary) behind any replica
// with a proven bound. Unknown is not fresh — comparing the -1 sentinel
// numerically would make a replica that cannot prove anything look
// better than one provably 1ms behind.
const unknownStalenessPenaltyMs = float64(1 << 20)

// latencyEWMAAlpha weights the newest latency observation.
const latencyEWMAAlpha = 0.3

// endpointState is one replica endpoint's observed health, updated from
// every exchange's staleness headers and wall-clock latency.
type endpointState struct {
	url          string
	latencyMs    float64 // EWMA of exchange latency
	stalenessMs  float64 // last observed staleness (-1 unknown)
	appliedSeq   uint64  // last observed applied sequence
	inflight     int     // requests currently outstanding
	penaltyUntil time.Time
	observed     bool // at least one exchange has succeeded
	consecFails  int  // consecutive connection failures (liveness)
}

// score ranks endpoints for power-of-two-choices: observed staleness
// plus smoothed latency scaled by outstanding load, all in milliseconds.
// The in-flight term matters under concurrency — latency and staleness
// only update when a response lands, so two choices scored on them alone
// herd onto whichever endpoint last looked best; outstanding requests
// are visible the instant they are issued and spread the herd. An
// endpoint never talked to scores 0 — optimistic, so new replicas get
// explored; one that answered but could not bound its staleness ranks
// last, not first.
func (e *endpointState) score() float64 {
	s := e.stalenessMs
	if s < 0 {
		if e.observed {
			s = unknownStalenessPenaltyMs
		} else {
			s = 0
		}
	}
	return s + e.latencyMs*float64(1+e.inflight)
}

// TierCounts attributes served record reads to the tier that answered:
// the primary, a replica, or the client's own browser cache. The measured
// basis for "absorbed by the cache hierarchy" claims.
type TierCounts struct {
	Primary     uint64
	Replica     uint64
	ClientCache uint64
}

// SetReplicaEndpoints installs the replica endpoints bounded reads are
// routed across. Observed state for endpoints that stay in the set is
// kept.
func (c *Client) SetReplicaEndpoints(urls ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := map[string]*endpointState{}
	for _, ep := range c.replicas {
		old[ep.url] = ep
	}
	c.replicas = c.replicas[:0]
	for _, u := range urls {
		if ep := old[u]; ep != nil {
			c.replicas = append(c.replicas, ep)
			continue
		}
		c.replicas = append(c.replicas, &endpointState{url: u, stalenessMs: -1})
	}
}

// ReplicaEndpoints returns the configured replica endpoints.
func (c *Client) ReplicaEndpoints() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	urls := make([]string, len(c.replicas))
	for i, ep := range c.replicas {
		urls[i] = ep.url
	}
	return urls
}

// RefreshReplicaSet fetches the deployment's advertised read topology
// (GET /v1/cluster/replicas) from the default endpoint and installs the
// replica endpoints. Deployments that advertise nothing leave routing
// off.
func (c *Client) RefreshReplicaSet() error {
	return c.refreshReplicaSetFrom(c.opts.BaseURL)
}

// refreshReplicaSetFrom is RefreshReplicaSet against an explicit base —
// after a failover the default endpoint may be the one node that is
// gone, and the surviving replicas carry the rewritten topology. The
// advertised primary is remembered as the write-redirect target of last
// resort.
func (c *Client) refreshReplicaSetFrom(base string) error {
	resp, err := c.send(c.http, base, http.MethodGet, "/v1/cluster/replicas", nil, false, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	var body server.ReplicaSetResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return err
	}
	c.SetReplicaEndpoints(body.Replicas...)
	if body.Primary != "" {
		c.mu.Lock()
		c.knownPrimary = body.Primary
		c.mu.Unlock()
	}
	return nil
}

// pickReplica chooses a candidate by power-of-two-choices over score,
// excluding already-tried and penalized endpoints, and marks the winner
// in-flight (the caller must releaseReplica it when the exchange ends).
// nil when no replica is eligible (the caller then goes to the primary).
func (c *Client) pickReplica(tried map[string]bool) *endpointState {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	var cands []*endpointState
	for _, ep := range c.replicas {
		if tried[ep.url] || now.Before(ep.penaltyUntil) {
			continue
		}
		cands = append(cands, ep)
	}
	var win *endpointState
	switch len(cands) {
	case 0:
		return nil
	case 1:
		win = cands[0]
	default:
		i := c.rng.Intn(len(cands))
		j := c.rng.Intn(len(cands) - 1)
		if j >= i {
			j++
		}
		win = cands[i]
		if cands[j].score() < cands[i].score() {
			win = cands[j]
		}
	}
	win.inflight++
	return win
}

// releaseReplica ends an exchange started by pickReplica.
func (c *Client) releaseReplica(ep *endpointState) {
	c.mu.Lock()
	ep.inflight--
	c.mu.Unlock()
}

// observeEndpoint folds one exchange's outcome into the endpoint's
// routing state. Any completed exchange proves liveness: the
// consecutive-failure counter resets and the endpoint counts as
// observed (so an unknown staleness from here on means "cannot prove",
// not "never asked").
func (c *Client) observeEndpoint(ep *endpointState, h http.Header, elapsed time.Duration) {
	ms := float64(elapsed) / float64(time.Millisecond)
	c.mu.Lock()
	defer c.mu.Unlock()
	ep.observed = true
	ep.consecFails = 0
	if ep.latencyMs == 0 {
		ep.latencyMs = ms
	} else {
		ep.latencyMs = latencyEWMAAlpha*ms + (1-latencyEWMAAlpha)*ep.latencyMs
	}
	if v := h.Get(server.HeaderStaleness); v != "" {
		if st, err := strconv.ParseFloat(v, 64); err == nil {
			ep.stalenessMs = st
		}
	}
	if v := h.Get(server.HeaderAppliedSeq); v != "" {
		if seq, err := strconv.ParseUint(v, 10, 64); err == nil {
			ep.appliedSeq = seq
		}
	}
}

func (c *Client) penalize(ep *endpointState) {
	until := c.opts.Clock().Add(replicaPenalty)
	c.mu.Lock()
	ep.penaltyUntil = until
	c.mu.Unlock()
}

// noteConnFailure records a transport-level failure (connection refused,
// reset, timeout) against an endpoint's liveness. The first failures get
// the flat transient penalty; at evictAfterFailures consecutive failures
// the endpoint is evicted and re-probed with exponential backoff.
func (c *Client) noteConnFailure(ep *endpointState) {
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	ep.consecFails++
	d := replicaPenalty
	if ep.consecFails >= evictAfterFailures {
		if ep.consecFails == evictAfterFailures {
			c.stats.EndpointEvictions++
		}
		shift := ep.consecFails - evictAfterFailures
		if shift > 10 {
			shift = 10
		}
		d = evictBackoffBase << uint(shift)
		if d > evictBackoffMax {
			d = evictBackoffMax
		}
	}
	ep.penaltyUntil = now.Add(d)
}

// responseStaleness extracts the replica-reported staleness of a
// response; (0, false) for primary-served responses, which are fresh by
// definition.
func responseStaleness(h http.Header) (float64, bool) {
	if h.Get(server.HeaderReplica) == "" {
		return 0, false
	}
	v := h.Get(server.HeaderStaleness)
	if v == "" {
		return -1, true // replica that has not bounded its staleness yet
	}
	ms, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return -1, true
	}
	return ms, true
}

// countTier attributes one served record read to the tier that answered it
// under header h: nil is the browser cache. A promoted replica is a
// primary again.
func (c *Client) countTier(h http.Header) {
	state := h.Get(server.HeaderReplica)
	c.mu.Lock()
	switch {
	case h == nil:
		c.stats.ReadsByTier.ClientCache++
	case state != "" && state != "promoted":
		c.stats.ReadsByTier.Replica++
	default:
		c.stats.ReadsByTier.Primary++
	}
	c.mu.Unlock()
}

// maybePiggybackEBF refreshes the client's invalidation state from the
// tier that served a read (Cached-Initialization style): when the
// response advertises an EBF generation newer than the client's view,
// the filter is refetched from the same endpoint — no primary
// round-trip. Throttled to a quarter of Δ so write-heavy phases don't
// degenerate into a refresh per read.
func (c *Client) maybePiggybackEBF(base string, h http.Header) {
	if c.opts.DisableEBF || c.opts.PerTableEBF {
		return
	}
	v := h.Get(server.HeaderEBFGenerated)
	if v == "" {
		return
	}
	gen, err := strconv.ParseInt(v, 10, 64)
	if err != nil || gen == 0 {
		return
	}
	now := c.opts.Clock()
	c.mu.Lock()
	view := c.view
	last := c.lastPiggyback
	c.mu.Unlock()
	if view == nil || gen <= view.GeneratedAt().UnixNano() {
		return
	}
	if now.Sub(last) < c.opts.RefreshInterval/4 {
		return
	}
	c.mu.Lock()
	c.lastPiggyback = now
	c.mu.Unlock()
	// The replica keeps a flag log of its own: whichever node's snapshot
	// is installed, the next renewal from the other one is uncovered.
	if _, err := c.renewEBF(base, "", view); err != nil {
		return
	}
	c.count(&c.stats.EBFPiggybacks)
}

// fetchRecordRouted sends one bounded record read to the replica tier:
// up to two replica attempts (power-of-two-choices, then the next best),
// each carrying the bound and the read-your-writes floor. A 412
// rejection, transport error, or over-bound 200 from an admission-unaware
// server re-routes; nil means no replica answered, and the read falls
// back to the primary, so a bounded read never silently returns an
// over-bound response.
func (c *Client) fetchRecordRouted(path, key string, revalidate bool, bound time.Duration, prior *cache.Entry) *http.Response {
	boundMs := float64(bound) / float64(time.Millisecond)
	extra := ifNoneMatch(prior)
	extra.Set(server.HeaderMaxStaleness, strconv.FormatFloat(boundMs, 'f', -1, 64))
	c.mu.Lock()
	minSeq := c.floors[key].seq
	c.mu.Unlock()
	if minSeq > 0 {
		extra.Set(server.HeaderMinSeq, strconv.FormatUint(minSeq, 10))
	}
	tried := map[string]bool{}
	for attempt := 0; attempt < 2; attempt++ {
		ep := c.pickReplica(tried)
		if ep == nil {
			break
		}
		tried[ep.url] = true
		start := c.opts.Clock()
		resp, err := c.send(c.http, ep.url, http.MethodGet, path, nil, revalidate, extra)
		c.releaseReplica(ep)
		if err != nil {
			c.noteConnFailure(ep)
			continue
		}
		c.observeEndpoint(ep, resp.Header, c.opts.Clock().Sub(start))
		if resp.StatusCode == http.StatusPreconditionFailed {
			closeBody(resp)
			c.count(&c.stats.StalenessRetries)
			// A rejection for a too-tight bound is not an unhealthy
			// endpoint — the p2c score, just updated from the 412's own
			// staleness header, already deprioritizes it. Only a replica
			// that cannot bound its staleness at all (bootstrapping) is
			// backed off.
			if resp.Header.Get(server.HeaderStaleness) == "" {
				c.penalize(ep)
			}
			continue
		}
		if st, replica := responseStaleness(resp.Header); replica && resp.StatusCode == http.StatusOK && (st < 0 || st > boundMs) {
			closeBody(resp)
			c.count(&c.stats.StalenessRetries)
			continue
		}
		if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified {
			c.maybePiggybackEBF(ep.url, resp.Header)
		}
		return resp
	}
	return nil
}
