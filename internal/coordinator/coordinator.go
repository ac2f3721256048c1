// Package coordinator implements Quaestor's failover supervisor: a
// controller that health-probes a primary over its replication status
// endpoint, tracks each shard's replicas by applied sequence and
// provable staleness, and on confirmed primary death performs the whole
// cutover automatically — elect the freshest eligible replica per
// shard, promote it idempotently, rewrite the shard map's node list
// under a bumped epoch, push the new read topology to every survivor,
// and fence the old primary so a returning corpse refuses writes and
// advertises its successor.
//
// The client side needs nothing new: the SDK's existing
// X-Quaestor-Shard-Epoch refresh and X-Quaestor-Primary redirect
// complete the cutover, and acked writes survive because promotion
// only ever selects a replica whose applied sequence is provably the
// furthest — the same guarantee the manual promote runbook relied on,
// now enforced by code instead of an operator.
//
// Election eligibility is deliberately strict about the unknown
// staleness sentinel: a replica reporting StalenessMs == -1 has never
// proven it held everything the primary acknowledged, so it is
// ineligible — unknown is not fresh, and comparing -1 numerically
// would rank a bootstrapping replica above one provably 1ms behind.
package coordinator

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"quaestor/internal/cluster"
	"quaestor/internal/replication"
)

// State names the coordinator's position in its supervision loop.
type State string

// Coordinator lifecycle states.
const (
	// StateWatching: the primary answered its last probe.
	StateWatching State = "watching"
	// StateSuspect: probes are failing but the death threshold has not
	// been reached; probing continues with exponential backoff + jitter.
	StateSuspect State = "suspect"
	// StateFailingOver: death confirmed; election/promotion in progress.
	StateFailingOver State = "failing-over"
	// StateStopped: Stop was called.
	StateStopped State = "stopped"
)

// Options configures a Coordinator.
type Options struct {
	// Primary is the supervised primary's base URL. Required.
	Primary string
	// Replicas are the candidate replica base URLs (each following all
	// of the primary's shards). Required, at least one.
	Replicas []string

	// HeartbeatInterval is the probe cadence while the primary is
	// healthy (default 500ms); ProbeTimeout bounds one probe (default
	// 2s). FailureThreshold consecutive failed probes confirm death
	// (default 3) — with backoff, the confirmation deadline is roughly
	// HeartbeatInterval × (2^FailureThreshold − 1) plus probe timeouts.
	HeartbeatInterval time.Duration
	ProbeTimeout      time.Duration
	FailureThreshold  int
	// MaxBackoff caps the suspect-phase probe backoff and the fencing
	// retry backoff (default 5s).
	MaxBackoff time.Duration
	// SettleWait bounds how long the election waits for candidate
	// appliers to drain in-flight frames before ranking (default 1s;
	// the wait ends early once two consecutive polls see no applied-
	// sequence advance).
	SettleWait time.Duration

	// Client is the HTTP client for probes and control calls (default
	// http.DefaultClient); Token authenticates them against servers
	// started with an auth token.
	Client *http.Client
	Token  string
	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
	// Seed fixes the jitter source (0: time-seeded).
	Seed int64
}

// ShardOutcome reports one shard's election + promotion result.
type ShardOutcome struct {
	Shard     int     `json:"shard"`
	Winner    string  `json:"winner"`
	LastSeq   uint64  `json:"lastSeq"`
	Staleness float64 `json:"stalenessMs"`
	// Changed is false when the winner was already promoted — the
	// idempotent re-run path after a crash mid-promote.
	Changed bool `json:"changed"`
	// Candidates is how many replicas were eligible for this shard.
	Candidates int `json:"candidates"`
}

// Report describes one completed failover.
type Report struct {
	OldPrimary string `json:"oldPrimary"`
	NewPrimary string `json:"newPrimary"`
	// Epoch is the rewritten shard map's epoch.
	Epoch     uint64         `json:"epoch"`
	Shards    []ShardOutcome `json:"shards"`
	ElapsedMs float64        `json:"elapsedMs"`
	// Fenced reports whether the old primary has acknowledged its
	// demotion yet; false while it is still unreachable (the fencing
	// retry keeps running in the background).
	Fenced bool `json:"fenced"`
}

// Status is a point-in-time view of the coordinator, served by the
// attached server's /v1/failover/status and the /v1/stats failover
// section.
type Status struct {
	State   State  `json:"state"`
	Primary string `json:"primary"`
	// Candidates is the current replica candidate set.
	Candidates    []string `json:"candidates"`
	Probes        uint64   `json:"probes"`
	ProbeFailures uint64   `json:"probeFailures"`
	// ConsecutiveFailures is the current unbroken failed-probe run.
	ConsecutiveFailures int     `json:"consecutiveFailures"`
	Failovers           uint64  `json:"failovers"`
	LastFailover        *Report `json:"lastFailover,omitempty"`
}

// Coordinator supervises one primary. Run starts the loop; Stop ends it.
type Coordinator struct {
	opts Options
	hc   *http.Client
	logf func(string, ...any)

	mu      sync.Mutex
	st      Status
	rng     *rand.Rand
	stop    chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup // background fencing retries
	started bool
	stopped bool
}

// New validates options and builds a Coordinator (not yet running).
func New(opts Options) (*Coordinator, error) {
	if opts.Primary == "" {
		return nil, fmt.Errorf("coordinator: Primary is required")
	}
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("coordinator: at least one replica candidate is required")
	}
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 500 * time.Millisecond
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = 3
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 5 * time.Second
	}
	if opts.SettleWait <= 0 {
		opts.SettleWait = time.Second
	}
	if opts.Client == nil {
		//lint:quaestor ctxdeadline -- every coordinator exchange goes through roundTrip, which wraps it in a ProbeTimeout context deadline
		opts.Client = &http.Client{}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	c := &Coordinator{
		opts: opts,
		hc:   opts.Client,
		logf: logf,
		rng:  rand.New(rand.NewSource(seed)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	c.st = Status{
		State:      StateWatching,
		Primary:    opts.Primary,
		Candidates: append([]string(nil), opts.Replicas...),
	}
	return c, nil
}

// Run starts the supervision loop.
func (c *Coordinator) Run() {
	c.mu.Lock()
	if c.started || c.stopped {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	go c.loop()
}

// Stop ends supervision and any background fencing retries, and waits
// for them.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.stopped = true
	started := c.started
	c.st.State = StateStopped
	close(c.stop)
	c.mu.Unlock()
	if started {
		<-c.done
	} else {
		close(c.done)
	}
	c.wg.Wait()
}

// Status returns a copy of the coordinator's counters and last report.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Candidates = append([]string(nil), c.st.Candidates...)
	if c.st.LastFailover != nil {
		cp := *c.st.LastFailover
		cp.Shards = append([]ShardOutcome(nil), c.st.LastFailover.Shards...)
		st.LastFailover = &cp
	}
	return st
}

// loop is the supervision cycle: probe, back off on failure, fail over
// once the death threshold is crossed, then supervise the new primary.
func (c *Coordinator) loop() {
	defer close(c.done)
	interval := c.opts.HeartbeatInterval
	backoff := interval
	fails := 0
	for {
		primary := c.currentPrimary()
		if c.probePrimary(primary) {
			fails = 0
			backoff = interval
			c.setState(StateWatching, 0)
			if !c.sleep(c.jitter(interval)) {
				return
			}
			continue
		}
		fails++
		c.setState(StateSuspect, fails)
		if fails >= c.opts.FailureThreshold {
			c.logf("coordinator: primary %s failed %d consecutive probes; failing over", primary, fails)
			if c.failover(primary) {
				fails = 0
				backoff = interval
				continue
			}
			// No eligible candidate yet (replicas still settling or all
			// unknown-staleness): keep the primary suspect and retry the
			// whole failover after the backoff.
		}
		if !c.sleep(c.jitter(backoff)) {
			return
		}
		backoff *= 2
		if backoff > c.opts.MaxBackoff {
			backoff = c.opts.MaxBackoff
		}
	}
}

func (c *Coordinator) currentPrimary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Primary
}

func (c *Coordinator) candidates() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.st.Candidates...)
}

func (c *Coordinator) setState(st State, consecutive int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	c.st.State = st
	c.st.ConsecutiveFailures = consecutive
}

// sleep waits d or until Stop; false means stopping.
func (c *Coordinator) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.stop:
		return false
	case <-t.C:
		return true
	}
}

// jitter spreads a delay ±20% so a fleet of coordinators (or retries)
// never probes in lockstep.
func (c *Coordinator) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	f := 0.8 + 0.4*c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// roleProbe is the part of a primary's /v1/replication/status the health
// probe needs: a healthy supervised node answers role "primary". A fenced
// node answering "demoted" is not a healthy primary.
type roleProbe struct {
	Role string `json:"role"`
}

// probePrimary performs one health probe against the supervised primary.
// A node that never followed anyone answers the role object; a promoted
// replica (the supervision target after a failover) keeps answering its
// per-shard status vector.
func (c *Coordinator) probePrimary(primary string) bool {
	c.mu.Lock()
	c.st.Probes++
	c.mu.Unlock()
	body, err := c.get(primary + "/v1/replication/status")
	ok := false
	if err == nil {
		var rp roleProbe
		if json.Unmarshal(body, &rp) == nil {
			ok = rp.Role == "primary"
		} else if sts, err := decodeStatuses(body); err == nil {
			// A replica is healthy as a supervision target when every
			// shard it owns (won in the last failover — or all of them,
			// absent a report) is promoted. Shards it lost to a sibling
			// stay followers and don't count against it.
			owned := c.ownedShards(primary)
			ok = true
			for _, st := range sts {
				if owned != nil && !owned[st.Shard] {
					continue
				}
				if st.State != replication.StatePromoted {
					ok = false
					break
				}
			}
		}
	}
	if !ok {
		c.mu.Lock()
		c.st.ProbeFailures++
		c.mu.Unlock()
	}
	return ok
}

// ownedShards maps the shards a node won in the last failover, or nil
// when the node isn't that failover's new primary (then every shard
// must be promoted for it to count as healthy).
func (c *Coordinator) ownedShards(primary string) map[int]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.st.LastFailover
	if r == nil || r.NewPrimary != primary {
		return nil
	}
	owned := map[int]bool{}
	for _, o := range r.Shards {
		if o.Winner == primary {
			owned[o.Shard] = true
		}
	}
	return owned
}

// candidate is one replica's per-shard intelligence at election time.
type candidate struct {
	endpoint string
	statuses []replication.Status
}

// collectIntel polls every candidate's replication status, then waits
// (bounded by SettleWait) until two consecutive polls show no applied-
// sequence advance — in-flight frames received before the primary died
// deserve to count toward the election.
func (c *Coordinator) collectIntel() []candidate {
	poll := func() []candidate {
		var out []candidate
		for _, ep := range c.candidates() {
			sts, err := c.fetchStatuses(ep)
			if err != nil {
				c.logf("coordinator: candidate %s unreachable: %v", ep, err)
				continue
			}
			out = append(out, candidate{endpoint: ep, statuses: sts})
		}
		return out
	}
	seqVector := func(cands []candidate) string {
		var b bytes.Buffer
		for _, cand := range cands {
			fmt.Fprintf(&b, "%s:", cand.endpoint)
			for _, st := range cand.statuses {
				fmt.Fprintf(&b, "%d,", st.LastSeq)
			}
		}
		return b.String()
	}
	cands := poll()
	deadline := time.Now().Add(c.opts.SettleWait)
	last := seqVector(cands)
	step := c.opts.SettleWait / 10
	if step < 5*time.Millisecond {
		step = 5 * time.Millisecond
	}
	for time.Now().Before(deadline) {
		if !c.sleep(step) {
			return cands
		}
		next := poll()
		vec := seqVector(next)
		if len(next) > 0 {
			cands = next
		}
		if vec == last && len(next) > 0 {
			break // settled: no applier advanced between polls
		}
		last = vec
	}
	return cands
}

// fetchStatuses fetches a candidate's /v1/replication/status vector.
func (c *Coordinator) fetchStatuses(endpoint string) ([]replication.Status, error) {
	body, err := c.get(endpoint + "/v1/replication/status")
	if err != nil {
		return nil, err
	}
	return decodeStatuses(body)
}

// decodeStatuses decodes a replica's status body: one Status per shard,
// in shard order. A primary's role object is rejected.
func decodeStatuses(body []byte) ([]replication.Status, error) {
	var sts []replication.Status
	if err := json.Unmarshal(body, &sts); err != nil {
		return nil, fmt.Errorf("not a replica status vector: %w", err)
	}
	if len(sts) == 0 {
		return nil, fmt.Errorf("empty status vector")
	}
	for i, st := range sts {
		if st.Shard != i {
			return nil, fmt.Errorf("status %d reports shard %d", i, st.Shard)
		}
	}
	return sts, nil
}

// eligible reports whether one shard-status can stand for election.
// StalenessMs == -1 (unknown) is ineligible: the replica has never
// proven it held everything the primary acknowledged. Connecting is
// eligible — it is the expected state of a survivor whose primary just
// died (the follower loop is retrying a dead endpoint; its applied
// prefix is consistent) — but bootstrapping is not: mid-import the
// local state is a partial snapshot. Promoted shards are handled
// separately (they already won).
func eligible(st replication.Status) bool {
	if st.StalenessMs < 0 {
		return false
	}
	switch st.State {
	case replication.StateStreaming, replication.StateCatchingUp, replication.StateConnecting:
		return true
	default:
		return false
	}
}

// entry is one (candidate, shard-status) pair under election.
type entry struct {
	endpoint string
	st       replication.Status
	order    int // position in the candidate list: the final tiebreak
}

// electShard ranks a shard's entries: an already-promoted incumbent wins
// unconditionally (re-electing anyone else would be split-brain), then
// the furthest applied sequence, then the tightest proven staleness,
// then candidate order.
func electShard(entries []entry) (entry, bool) {
	var promoted []entry
	var elig []entry
	for _, e := range entries {
		if e.st.State == replication.StatePromoted {
			promoted = append(promoted, e)
		} else if eligible(e.st) {
			elig = append(elig, e)
		}
	}
	if len(promoted) > 0 {
		sort.SliceStable(promoted, func(i, j int) bool { return promoted[i].order < promoted[j].order })
		return promoted[0], true
	}
	if len(elig) == 0 {
		return entry{}, false
	}
	sort.SliceStable(elig, func(i, j int) bool {
		a, b := elig[i], elig[j]
		if a.st.LastSeq != b.st.LastSeq {
			return a.st.LastSeq > b.st.LastSeq
		}
		// eligible() already rejected the -1 sentinel, but the comparator
		// must not depend on its caller's filtering: an unknown bound
		// ranks behind every proven one, never as freshest.
		if (a.st.StalenessMs < 0) != (b.st.StalenessMs < 0) {
			return b.st.StalenessMs < 0
		}
		if a.st.StalenessMs != b.st.StalenessMs {
			return a.st.StalenessMs < b.st.StalenessMs
		}
		return a.order < b.order
	})
	return elig[0], true
}

// failover runs one end-to-end cutover attempt. It returns false when it
// could not complete (no eligible candidate for some shard, a promote
// rejected, no survivor reachable); every step already taken is
// idempotent, so the caller simply retries the whole attempt.
func (c *Coordinator) failover(oldPrimary string) bool {
	start := time.Now()
	c.setState(StateFailingOver, c.opts.FailureThreshold)

	cands := c.collectIntel()
	if len(cands) == 0 {
		c.logf("coordinator: no candidate reachable; retrying")
		return false
	}

	// Index intel per shard: statuses[i] is the candidate's shard-i loop.
	shards := 1
	for _, cand := range cands {
		if len(cand.statuses) > shards {
			shards = len(cand.statuses)
		}
	}
	perShard := make([][]entry, shards)
	for order, cand := range cands {
		for i, st := range cand.statuses {
			perShard[i] = append(perShard[i], entry{endpoint: cand.endpoint, st: st, order: order})
		}
	}

	outcomes := make([]ShardOutcome, shards)
	for i := 0; i < shards; i++ {
		win, ok := electShard(perShard[i])
		if !ok {
			c.logf("coordinator: shard %d has no eligible replica (unknown staleness is ineligible); retrying", i)
			return false
		}
		outcomes[i] = ShardOutcome{
			Shard:      i,
			Winner:     win.endpoint,
			LastSeq:    win.st.LastSeq,
			Staleness:  win.st.StalenessMs,
			Candidates: len(perShard[i]),
		}
	}

	// Promote each shard on its winner. Idempotent: a re-run after a
	// crash mid-promote reports changed=false for shards already flipped.
	for i := range outcomes {
		changed, err := c.promote(outcomes[i].Winner, i)
		if err != nil {
			c.logf("coordinator: promoting shard %d on %s: %v; retrying", i, outcomes[i].Winner, err)
			return false
		}
		outcomes[i].Changed = changed
	}
	newPrimary := outcomes[0].Winner

	// Rewrite the shard map: same placement, new node list, epoch + 1.
	// Every survivor adopts it and stamps the new epoch on its next
	// response — the SDK's refresh path does the rest.
	var newEpoch uint64
	curMap, err := c.fetchMap(newPrimary)
	if err != nil {
		c.logf("coordinator: fetching shard map from %s: %v; retrying", newPrimary, err)
		return false
	}
	nodes := make([]string, shards)
	for i, o := range outcomes {
		nodes[i] = o.Winner
	}
	if sameNodes(curMap.Nodes, nodes) {
		// A retried attempt: the rewrite already landed — re-pushing
		// under a fresh epoch would churn clients for nothing.
		newEpoch = curMap.Epoch
	} else {
		newEpoch = curMap.Epoch + 1
		rewritten := &cluster.ShardMap{Epoch: newEpoch, Shards: curMap.Shards, VNodes: curMap.VNodes, Nodes: nodes}
		acked := 0
		for _, cand := range cands {
			if err := c.pushMap(cand.endpoint, rewritten); err != nil {
				c.logf("coordinator: pushing map epoch %d to %s: %v", newEpoch, cand.endpoint, err)
				continue
			}
			acked++
		}
		if acked == 0 {
			return false
		}
	}

	// Push the rewritten read topology: the new primary leaves the
	// replica pool (reads to it are primary reads now), every other
	// survivor keeps serving replica reads — including a split-winner
	// promoted on some shards, whose per-shard staleness admission
	// bounds reads on the shards it still follows.
	var replicas []string
	for _, cand := range cands {
		if cand.endpoint != newPrimary {
			replicas = append(replicas, cand.endpoint)
		}
	}
	for _, cand := range cands {
		if err := c.pushReplicaSet(cand.endpoint, newPrimary, replicas); err != nil {
			c.logf("coordinator: pushing topology to %s: %v", cand.endpoint, err)
		}
	}

	report := &Report{
		OldPrimary: oldPrimary,
		NewPrimary: newPrimary,
		Epoch:      newEpoch,
		Shards:     outcomes,
		ElapsedMs:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	c.mu.Lock()
	c.st.Failovers++
	c.st.LastFailover = report
	c.st.Primary = newPrimary
	// Supervise the new primary; it leaves the candidate pool.
	var nextCands []string
	for _, ep := range c.st.Candidates {
		if ep != newPrimary {
			nextCands = append(nextCands, ep)
		}
	}
	c.st.Candidates = nextCands
	if !c.stopped {
		c.st.State = StateWatching
		c.st.ConsecutiveFailures = 0
	}
	stopping := c.stopped
	c.mu.Unlock()

	c.logf("coordinator: failed over %s -> %s (epoch %d) in %.0fms", oldPrimary, newPrimary, newEpoch, report.ElapsedMs)

	// Fence the old primary in the background, retrying until it
	// acknowledges (it may still be down — the point is the moment it
	// comes back).
	if !stopping {
		c.wg.Add(1)
		go c.fenceLoop(oldPrimary, newPrimary, newEpoch, report)
	}
	return true
}

// fenceLoop demotes the old primary with exponential backoff until it
// acknowledges or the coordinator stops. Success flips the report's
// Fenced flag.
func (c *Coordinator) fenceLoop(oldPrimary, newPrimary string, epoch uint64, report *Report) {
	defer c.wg.Done()
	backoff := c.opts.HeartbeatInterval
	for {
		if done := c.demote(oldPrimary, newPrimary, epoch); done {
			c.mu.Lock()
			report.Fenced = true
			c.mu.Unlock()
			c.logf("coordinator: fenced old primary %s (successor %s)", oldPrimary, newPrimary)
			return
		}
		if !c.sleep(c.jitter(backoff)) {
			return
		}
		backoff *= 2
		if backoff > c.opts.MaxBackoff {
			backoff = c.opts.MaxBackoff
		}
	}
}

// promote POSTs one shard's promote (idempotent server-side) and reports
// whether this call performed the flip.
func (c *Coordinator) promote(endpoint string, shard int) (changed bool, err error) {
	body, err := c.post(fmt.Sprintf("%s/v1/replication/promote?shard=%d", endpoint, shard), nil)
	if err != nil {
		return false, err
	}
	var resp struct {
		Promoted bool `json:"promoted"`
		Changed  bool `json:"changed"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, err
	}
	if !resp.Promoted {
		return false, fmt.Errorf("promote not acknowledged")
	}
	return resp.Changed, nil
}

// demote fences an ex-primary: true once the node acknowledged (or
// reported a state that makes fencing moot).
func (c *Coordinator) demote(endpoint, newPrimary string, epoch uint64) bool {
	payload, _ := json.Marshal(map[string]any{"primary": newPrimary, "epoch": epoch})
	_, err := c.post(endpoint+"/v1/replication/demote", payload)
	return err == nil
}

func sameNodes(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (c *Coordinator) fetchMap(endpoint string) (*cluster.ShardMap, error) {
	body, err := c.get(endpoint + "/v1/cluster/map")
	if err != nil {
		return nil, err
	}
	return cluster.ParseShardMap(body)
}

func (c *Coordinator) pushMap(endpoint string, m *cluster.ShardMap) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = c.post(endpoint+"/v1/cluster/map", payload)
	return err
}

func (c *Coordinator) pushReplicaSet(endpoint, primary string, replicas []string) error {
	payload, _ := json.Marshal(map[string]any{"primary": primary, "replicas": replicas})
	_, err := c.post(endpoint+"/v1/cluster/replicas", payload)
	return err
}

// get/post are the control-plane exchanges: bounded by ProbeTimeout,
// authenticated when a token is configured, error on non-2xx.
func (c *Coordinator) get(url string) ([]byte, error) {
	return c.roundTrip(http.MethodGet, url, nil)
}

func (c *Coordinator) post(url string, body []byte) ([]byte, error) {
	return c.roundTrip(http.MethodPost, url, body)
}

func (c *Coordinator) roundTrip(method, url string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	defer cancel()
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rdr)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.opts.Token)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}
