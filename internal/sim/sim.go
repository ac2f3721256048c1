// Package sim is the Monte Carlo simulator the paper uses to analyze
// staleness and cache behaviour (Section 6.1): "Simulation is the most
// reliable method to analyze properties like staleness as it provides
// globally ordered event time stamps for each operation and does not rely
// on error-prone clock synchronization."
//
// It runs the shipped stack on a virtual clock: one server.Server over an
// in-memory store.Store (TTL estimator, active list, EBF, InvaliDB), a
// cache.HTTPTier as the CDN in the modes that have one, and one
// client.Client session per simulated client, all speaking HTTP through
// in-process handlers. A single-threaded discrete-event loop runs each
// operation whole at its start time and charges it the latency it would
// have taken; nothing sleeps.
//
// What is modelled rather than shipped:
//   - hop latencies: client↔origin ClientServerRTT (145 ms), client↔CDN
//     ClientCDNRTT (4 ms), the CDN→origin leg their difference, and an
//     operation that never reaches the network ClientHitCost;
//   - capacity: the origin and the CDN are queues serving ServerRate and
//     CDNRate requests/s (queueDelay);
//   - the purge delay: a PURGE reaches the CDN InvalidationLatency after
//     the server issues it. InvaliDB itself runs as shipped, on its own
//     goroutines, but the loop settles it (server.Server.Settle) after
//     every acknowledged write, so detection is immediate in virtual time;
//   - the corpus keeps its size: inserts and deletes are driven as updates
//     of existing records.
//
// Staleness is judged by the simulator from its own log of acknowledged
// writes (truth.go), never from the system's headers or counters.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quaestor/internal/cache"
	"quaestor/internal/client"
	"quaestor/internal/document"
	"quaestor/internal/ebf"
	"quaestor/internal/metrics"
	"quaestor/internal/query"
	"quaestor/internal/server"
	"quaestor/internal/store"
	"quaestor/internal/ttl"
	"quaestor/internal/workload"
)

// Config parameterizes one simulation run.
type Config struct {
	// Dataset sizes the corpus (nil = paper defaults: 10×10k docs,
	// 100 queries/table).
	Dataset *workload.DatasetConfig
	// Mix is the operation distribution (zero value = ReadHeavy).
	Mix workload.Mix
	// ZipfS is the access-skew exponent (default 0.7; the document-count
	// experiment uses 0.99).
	ZipfS float64
	// Clients is the number of client instances; ConnsPerClient the
	// parallel closed-loop connections each runs (paper: 10×300 under
	// load, 100×6 for staleness).
	Clients        int
	ConnsPerClient int
	// Duration is the simulated wall-clock span.
	Duration time.Duration
	// EBFRefresh is Δ, the client filter refresh interval (default 1s).
	EBFRefresh time.Duration
	// Mode selects the caching baseline.
	Mode server.CacheMode
	// Latency constants. Defaults: server RTT 145ms, CDN RTT 4ms.
	ClientServerRTT time.Duration
	ClientCDNRTT    time.Duration
	// InvalidationLatency is the delay between the server issuing a purge
	// and the CDN dropping the entry (default 30ms, which keeps CDN
	// staleness below 0.1% as measured).
	InvalidationLatency time.Duration
	// ClientHitCost is the cost of an operation the browser cache answers
	// without any network exchange (browser processing; default 0.5ms).
	// It keeps closed-loop throughput finite.
	ClientHitCost time.Duration
	// ThinkTime is the mean exponentially distributed pause between a
	// response and the connection's next request. Zero (the default) is
	// the YCSB-style closed loop used for the throughput experiments;
	// browser-like workloads (Figure 10's 100×6 setup, the flash crowd)
	// set a positive think time.
	ThinkTime time.Duration
	// ServerRate is the origin's aggregate service capacity in ops/s
	// (default 12,000 — 3 Quaestor servers on a 2-shard MongoDB). CDNRate
	// is the edge capacity (default 200,000).
	ServerRate float64
	CDNRate    float64
	// TTL tunes the estimator (nil = defaults).
	TTL *ttl.Config
	// EBFBits/EBFHashes size the filter (0 = paper defaults).
	EBFBits   uint32
	EBFHashes uint32
	// DisableEBF turns off client staleness checks (static-TTL straw man;
	// also used for the CDN-only baseline).
	DisableEBF bool
	// Representation selects how query results are materialized:
	// object-lists (default), id-lists, or the cost-based model.
	Representation server.RepresentationPolicy
	// Seed fixes all randomness.
	Seed int64
	// MaxOps bounds the number of simulated operations (0 = unlimited;
	// the run always stops at Duration).
	MaxOps uint64
}

func (c *Config) withDefaults() Config {
	cp := *c
	if cp.Mix.Read == 0 && cp.Mix.Query == 0 && cp.Mix.Insert == 0 && cp.Mix.Update == 0 && cp.Mix.Delete == 0 {
		cp.Mix = workload.ReadHeavy
	}
	if cp.ZipfS == 0 {
		cp.ZipfS = 0.7
	}
	if cp.Clients <= 0 {
		cp.Clients = 10
	}
	if cp.ConnsPerClient <= 0 {
		cp.ConnsPerClient = 30
	}
	if cp.Duration <= 0 {
		cp.Duration = 60 * time.Second
	}
	if cp.EBFRefresh <= 0 {
		cp.EBFRefresh = time.Second
	}
	if cp.ClientServerRTT <= 0 {
		cp.ClientServerRTT = 145 * time.Millisecond
	}
	if cp.ClientCDNRTT <= 0 {
		cp.ClientCDNRTT = 4 * time.Millisecond
	}
	if cp.InvalidationLatency <= 0 {
		cp.InvalidationLatency = 30 * time.Millisecond
	}
	if cp.ClientHitCost <= 0 {
		cp.ClientHitCost = 500 * time.Microsecond
	}
	if cp.ServerRate <= 0 {
		cp.ServerRate = 12000
	}
	if cp.CDNRate <= 0 {
		cp.CDNRate = 200000
	}
	if cp.Seed == 0 {
		cp.Seed = 42
	}
	return cp
}

// Metrics aggregates one run's measurements.
type Metrics struct {
	Ops     uint64
	Reads   uint64
	Queries uint64
	Writes  uint64

	// Latency histograms per operation class (milliseconds).
	ReadLatency  *metrics.Histogram
	QueryLatency *metrics.Histogram

	// Where responses were served from.
	ClientHitsReads   uint64
	ClientHitsQueries uint64
	CDNHitsReads      uint64
	CDNHitsQueries    uint64
	MissReads         uint64
	MissQueries       uint64

	// Staleness: responses older than the globally current version.
	StaleReads      uint64
	StaleQueries    uint64
	StaleCDNServes  uint64 // stale responses that came from the CDN
	MaxStaleness    time.Duration
	StalenessSum    time.Duration
	StalenessEvents uint64

	// TTL estimation quality (Figure 11): the estimator's TTLs for the
	// queries the origin served (Cache-Control carries them in whole
	// seconds), and their true TTLs (origin serve → first write that
	// changed the result).
	EstimatedTTLs *metrics.Histogram
	TrueTTLs      *metrics.Histogram
	// The TTLs each estimator knob sets: RecordTTLs for the records the
	// origin served that have a sampled write rate (Equation 1, the
	// quantile; the others get the default), RevisedTTLs for the queries
	// it served after their first invalidation (Equation 2's EWMA, α).
	RecordTTLs  *metrics.Histogram
	RevisedTTLs *metrics.Histogram

	// AssemblyFetches counts id-list member reads that left the browser
	// cache (the representation trade-off's round-trip cost).
	AssemblyFetches uint64

	// Throughput in completed ops per simulated second.
	Throughput float64

	// SimulatedDuration is the virtual span actually covered.
	SimulatedDuration time.Duration

	// EBFStats snapshots the server-side filter at the end of the run.
	EBFStats ebf.Stats
}

// ClientHitRate returns the client-cache hit fraction for the class.
func (m *Metrics) ClientHitRate(queries bool) float64 {
	if queries {
		return rate(m.ClientHitsQueries, m.Queries)
	}
	return rate(m.ClientHitsReads, m.Reads)
}

// CDNHitRate returns the CDN's hit fraction among the requests that
// reached it (i.e. that the client cache did not absorb) — the quantity
// Figure 8e plots.
func (m *Metrics) CDNHitRate(queries bool) float64 {
	if queries {
		return rate(m.CDNHitsQueries, m.CDNHitsQueries+m.MissQueries)
	}
	return rate(m.CDNHitsReads, m.CDNHitsReads+m.MissReads)
}

// StaleRate returns the stale-response fraction for the class.
func (m *Metrics) StaleRate(queries bool) float64 {
	if queries {
		return rate(m.StaleQueries, m.Queries)
	}
	return rate(m.StaleReads, m.Reads)
}

func rate(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// event is one scheduled simulation action.
type event struct {
	at  time.Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// tier is where an operation's answer came from.
type tier int

const (
	tierClient tier = iota // the browser cache, without any exchange
	tierCDN                // a fresh CDN copy
	tierOrigin             // the origin, directly or through the CDN
)

// exchange is one HTTP request a client sent during the current operation.
type exchange struct {
	uri    string
	cdnHit bool
}

// simClient is one client instance: an SDK session and the workload
// generator that drives its connections.
type simClient struct {
	gen *workload.Generator
	sdk *client.Client
}

// settleTimeout bounds the wait for the invalidation pipeline after a
// write; it only trips if the pipeline is wedged.
const settleTimeout = time.Minute

// Sim is one simulation instance.
type Sim struct {
	cfg  Config
	rand *rand.Rand

	now    time.Time
	clock  atomic.Int64 // now in Unix nanoseconds, for the stack's goroutines
	queue  eventHeap
	seq    uint64
	stopAt time.Time

	ds      *workload.Dataset
	db      *store.Store
	srv     *server.Server
	cdn     *cache.HTTPTier // nil in the modes without a CDN
	clients []*simClient
	truth   *truth
	met     *Metrics

	// The current operation's charged latency and exchanges, and the
	// backlogs of the two queues. Only the loop goroutine touches them.
	charge     time.Duration
	exchanges  []exchange
	serverBusy time.Time
	cdnBusy    time.Time

	// purges holds the paths the server purged and the loop has not yet
	// scheduled; the server's notification goroutine appends to it.
	purgeMu sync.Mutex
	purges  []string
}

// New builds a simulation (without running it): the dataset loaded into
// the store, the server, the CDN and one dialled SDK session per client.
func New(cfg *Config) *Sim {
	c := cfg.withDefaults()
	start := time.Unix(0, 0).UTC()
	s := &Sim{
		cfg:    c,
		rand:   rand.New(rand.NewSource(c.Seed)),
		stopAt: start.Add(c.Duration),
		ds:     workload.GenerateDataset(c.Dataset),
		met: &Metrics{
			ReadLatency:   metrics.NewHistogram(),
			QueryLatency:  metrics.NewHistogram(),
			EstimatedTTLs: metrics.NewHistogram(),
			TrueTTLs:      metrics.NewHistogram(),
			RecordTTLs:    metrics.NewHistogram(),
			RevisedTTLs:   metrics.NewHistogram(),
		},
	}
	s.setNow(start)
	s.db = store.MustOpen(&store.Options{Clock: s.Clock()})
	s.load()
	s.truth = newTruth(s.db, s.met)
	s.srv = server.New(s.db, &server.Options{
		Mode:           c.Mode,
		Representation: c.Representation,
		TTL:            c.TTL,
		EBF:            &ebf.Options{Bits: c.EBFBits, Hashes: c.EBFHashes},
		Clock:          s.Clock(),
	})

	// The first tier a client request reaches, the hop to it and its queue.
	var first http.Handler = s.srv.Handler()
	hop, busy, capacity := c.ClientServerRTT, &s.serverBusy, c.ServerRate
	if c.Mode == server.ModeFull || c.Mode == server.ModeCDNOnly {
		s.cdn = cache.NewHTTPTier("cdn", cache.InvalidationBased, first, c.ClientServerRTT-c.ClientCDNRTT)
		s.cdn.Cache = cache.New(cache.InvalidationBased, 0, s.Clock())
		s.cdn.Clock = s.Clock()
		s.cdn.Sleep = func(leg time.Duration) {
			s.charge += leg + queueDelay(s.now, &s.serverBusy, c.ServerRate)
		}
		s.srv.AddPurger(server.PurgerFunc(func(path string) {
			s.purgeMu.Lock()
			s.purges = append(s.purges, path)
			s.purgeMu.Unlock()
		}))
		first, hop, busy, capacity = s.cdn, c.ClientCDNRTT, &s.cdnBusy, c.CDNRate
	}
	inner := client.NewHandlerTransport(first)
	transport := roundTripper(func(req *http.Request) (*http.Response, error) {
		s.charge += hop + queueDelay(s.now, busy, capacity)
		resp, err := inner.RoundTrip(req)
		if err == nil {
			s.exchanges = append(s.exchanges, exchange{
				uri:    req.URL.RequestURI(),
				cdnHit: resp.Header.Get("X-Cache") == "cdn: HIT",
			})
		}
		return resp, err
	})
	for i := 0; i < c.Clients; i++ {
		sdk, err := client.Dial(&client.Options{
			Transport:       transport,
			Clock:           s.Clock(),
			RefreshInterval: c.EBFRefresh,
			DisableEBF:      c.DisableEBF,
		})
		must(err)
		s.clients = append(s.clients, &simClient{
			gen: workload.NewGenerator(s.ds, c.Mix, c.ZipfS, c.Seed+int64(i)*7919),
			sdk: sdk,
		})
	}
	return s
}

// load fills the store with the dataset and indexes the queried field.
// The store keeps the dataset's own documents (document.Document's
// ownership rule). The dataset keeps only the ids the generators draw
// from, so once a document is updated its first version can be collected
// (Table 1 loads 10^6 documents).
func (s *Sim) load() {
	for _, table := range s.ds.Tables {
		must(s.db.CreateTable(table))
		must(s.db.CreateIndex(table, "tags"))
		docs := s.ds.Docs[table]
		for i, d := range docs {
			must(s.db.Insert(table, d))
			docs[i] = &document.Document{ID: d.ID}
		}
	}
}

// roundTripper adapts a function to http.RoundTripper.
type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
}

// Clock returns the virtual time source shared by all components.
func (s *Sim) Clock() func() time.Time {
	return func() time.Time { return time.Unix(0, s.clock.Load()).UTC() }
}

func (s *Sim) setNow(t time.Time) {
	s.now = t
	s.clock.Store(t.UnixNano())
}

// schedule enqueues fn at the given virtual time.
func (s *Sim) schedule(at time.Time, fn func()) {
	s.seq++
	heap.Push(&s.queue, &event{at: at, seq: s.seq, fn: fn})
}

// after enqueues fn delay after now.
func (s *Sim) after(delay time.Duration, fn func()) {
	s.schedule(s.now.Add(delay), fn)
}

// Run executes the event loop until the configured duration elapses and
// returns the collected metrics.
func Run(cfg *Config) *Metrics {
	s := New(cfg)
	return s.Run()
}

// Run executes the simulation and shuts the stack down.
func (s *Sim) Run() *Metrics {
	defer s.close()
	// Kick off every connection's closed loop.
	for _, cl := range s.clients {
		for conn := 0; conn < s.cfg.ConnsPerClient; conn++ {
			// Jitter start times so connections do not phase-lock.
			delay := time.Duration(s.rand.Int63n(int64(10 * time.Millisecond)))
			s.after(delay, func() { s.step(cl) })
		}
	}
	for s.queue.Len() > 0 {
		ev := heap.Pop(&s.queue).(*event)
		if ev.at.After(s.stopAt) {
			break
		}
		s.setNow(ev.at)
		ev.fn()
		if s.cfg.MaxOps > 0 && s.met.Ops >= s.cfg.MaxOps {
			break
		}
	}
	elapsed := s.now.Sub(time.Unix(0, 0).UTC())
	if elapsed <= 0 {
		elapsed = time.Millisecond
	}
	s.met.SimulatedDuration = elapsed
	s.met.Throughput = float64(s.met.Ops) / elapsed.Seconds()
	s.met.EBFStats = s.srv.EBFStats()
	return s.met
}

func (s *Sim) close() {
	s.srv.Close()
	s.db.Close()
}

// step runs one operation of one of c's connections and schedules the
// connection's next.
func (s *Sim) step(c *simClient) {
	latency := s.do(c, c.gen.Next())
	s.met.Ops++
	// Closed loop: the next request starts when this one completes, plus
	// optional exponentially distributed think time.
	if tt := s.cfg.ThinkTime; tt > 0 {
		latency += time.Duration(s.rand.ExpFloat64() * float64(tt))
	}
	s.after(latency, func() { s.step(c) })
}

// do runs one operation whole and returns its latency: what its exchanges
// were charged, or ClientHitCost if it made none.
func (s *Sim) do(c *simClient, op workload.Op) time.Duration {
	s.charge, s.exchanges = 0, s.exchanges[:0]
	var hist *metrics.Histogram
	switch op.Type {
	case workload.OpRead:
		s.read(c, op.Table, op.DocID)
		hist = s.met.ReadLatency
	case workload.OpQuery:
		s.query(c, op.Query)
		hist = s.met.QueryLatency
	default:
		s.write(c, op)
	}
	s.schedulePurges()
	latency := s.charge
	if len(s.exchanges) == 0 {
		latency = s.cfg.ClientHitCost
	}
	if hist != nil {
		hist.Observe(latency)
	}
	return latency
}

// answeredBy reports which tier answered the current operation's request
// for uri: the last exchange for it.
func (s *Sim) answeredBy(uri string) tier {
	for i := len(s.exchanges) - 1; i >= 0; i-- {
		if ex := s.exchanges[i]; ex.uri == uri {
			if ex.cdnHit {
				return tierCDN
			}
			return tierOrigin
		}
	}
	return tierClient
}

func (s *Sim) read(c *simClient, table, id string) {
	m := s.met
	m.Reads++
	doc, err := c.sdk.Read(table, id)
	must(err)
	t := s.answeredBy(server.RecordPath(table, id))
	switch t {
	case tierClient:
		m.ClientHitsReads++
	case tierCDN:
		m.CDNHitsReads++
	default:
		m.MissReads++
		key, est := server.RecordKey(table, id), s.srv.Estimator()
		if s.cfg.Mode != server.ModeUncached && est.WriteRate(key) > 0 {
			m.RecordTTLs.Observe(est.RecordTTL(key))
		}
	}
	if since, stale := s.truth.staleRecord(table, id, doc.Version); stale {
		s.stale(false, t == tierCDN, since)
	}
}

func (s *Sim) query(c *simClient, q *query.Query) {
	m := s.met
	m.Queries++
	res, err := c.sdk.Query(q)
	must(err)
	t := s.answeredBy(client.QueryPath(q))
	members := server.RecordPath(q.Table, "")
	for _, ex := range s.exchanges {
		if strings.HasPrefix(ex.uri, members) {
			m.AssemblyFetches++
		}
	}
	switch t {
	case tierClient:
		m.ClientHitsQueries++
	case tierCDN:
		m.CDNHitsQueries++
	default:
		m.MissQueries++
		if s.cfg.Mode != server.ModeUncached {
			keys := make([]string, len(res.IDs))
			for i, id := range res.IDs {
				keys[i] = server.RecordKey(q.Table, id)
			}
			est := s.srv.Estimator()
			issued := est.QueryTTL(q.Key(), keys)
			m.EstimatedTTLs.Observe(issued)
			if _, revised := est.EstimateSnapshot(q.Key()); revised {
				m.RevisedTTLs.Observe(issued)
			}
			s.truth.servedAtOrigin(q, res.Representation, s.now)
		}
	}
	if since, stale := s.truth.staleQuery(q, res); stale {
		s.stale(true, t == tierCDN, since)
	}
}

// write flips the primary tag of a record through the client's SDK, then
// settles the invalidation pipeline before the loop moves on. Inserts and
// deletes are driven as updates, keeping the corpus at its configured
// size: a delete flips its record to tag00000, an insert flips a record
// the simulator draws.
func (s *Sim) write(c *simClient, op workload.Op) {
	s.met.Writes++
	id, tag := op.DocID, op.UpdateTag
	if op.Type == workload.OpInsert {
		docs := s.ds.Docs[op.Table]
		id = docs[s.rand.Intn(len(docs))].ID
	}
	if tag == "" {
		tag = "tag00000"
	}
	before, err := s.db.Get(op.Table, id)
	must(err)
	second := before.Body()["tags"].([]any)[1]
	_, err = c.sdk.Update(op.Table, id, store.UpdateSpec{Set: map[string]any{"tags": []any{tag, second}}})
	must(err)
	if !s.srv.Settle(settleTimeout) {
		panic("sim: the invalidation pipeline did not settle")
	}
	after, err := s.db.Get(op.Table, id)
	must(err)
	s.truth.wrote(op.Table, before, after, s.now)
}

// schedulePurges delivers the purges the server issued during the
// operation to the CDN, InvalidationLatency from now.
func (s *Sim) schedulePurges() {
	s.purgeMu.Lock()
	paths := s.purges
	s.purges = nil
	s.purgeMu.Unlock()
	for _, path := range paths {
		s.after(s.cfg.InvalidationLatency, func() { s.cdn.Cache.Purge(path) })
	}
}

// stale accounts one stale response, stale since the first write it missed.
func (s *Sim) stale(isQuery, fromCDN bool, since time.Time) {
	m := s.met
	if isQuery {
		m.StaleQueries++
	} else {
		m.StaleReads++
	}
	if fromCDN {
		m.StaleCDNServes++
	}
	staleness := max(s.now.Sub(since), 0)
	m.StalenessEvents++
	m.StalenessSum += staleness
	m.MaxStaleness = max(m.MaxStaleness, staleness)
}

// queueDelay charges one request against a rate-limited resource and
// returns the added queueing + service delay. busyUntil tracks the
// resource's backlog; the M/D/1-style model saturates throughput exactly
// when arrival rate exceeds the configured capacity.
func queueDelay(now time.Time, busyUntil *time.Time, rate float64) time.Duration {
	service := time.Duration(float64(time.Second) / rate)
	start := now
	if busyUntil.After(start) {
		start = *busyUntil
	}
	end := start.Add(service)
	*busyUntil = end
	return end.Sub(now)
}
