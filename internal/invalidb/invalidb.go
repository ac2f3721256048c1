// Package invalidb implements InvaliDB, Quaestor's scalable real-time
// query-invalidation pipeline (Section 4.1).
//
// InvaliDB continuously matches record after-images from the database's
// change stream against all registered (cached) queries and notifies
// Quaestor the moment a cached result becomes stale. The workload is
// distributed over a 2-D grid: the set of active queries is hash-partitioned
// into query partitions (columns) and the change stream into object
// partitions (rows); each matching task owns one (row, column) cell, so it
// is responsible for a subset of all queries and only a fraction of their
// result sets. Ingestion consumes the store's ordered commit pipeline
// directly: the source delivers events in strict global Seq order, so the
// per-key reordering compensation this layer used to carry (routing events
// through id-hashed ingestion tasks) is gone, replaced by an assertion.
//
// Notification events follow the paper: add (an object enters a result
// set), remove (it leaves), change (a contained object's state changes
// without altering membership) and changeIndex (positional change within a
// sorted/limited result). Stateless predicates are matched entirely inside
// the grid cell; ORDER BY / LIMIT / OFFSET queries additionally flow
// through a separate order-maintenance layer partitioned by query.
//
// The paper runs this topology on Apache Storm; here each task is a
// goroutine connected by channels, preserving the partitioning scheme that
// the paper's linear scalability derives from.
package invalidb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/store"
)

// EventType classifies a notification.
type EventType int

// Notification event kinds (Section 4.1 "Notification Events").
const (
	EventAdd EventType = iota
	EventRemove
	EventChange
	EventChangeIndex
)

// String implements fmt.Stringer.
func (t EventType) String() string {
	switch t {
	case EventAdd:
		return "add"
	case EventRemove:
		return "remove"
	case EventChange:
		return "change"
	case EventChangeIndex:
		return "changeIndex"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// EventMask selects which notification events a subscription receives.
type EventMask uint8

// Masks for the two useful subscription combinations (Section 4.1): id-list
// results only need membership changes, object-list results also need state
// changes of contained objects.
const (
	MaskAdd         EventMask = 1 << EventAdd
	MaskRemove      EventMask = 1 << EventRemove
	MaskChange      EventMask = 1 << EventChange
	MaskChangeIndex EventMask = 1 << EventChangeIndex

	// MaskIDList invalidates only on result-set membership changes.
	MaskIDList = MaskAdd | MaskRemove | MaskChangeIndex
	// MaskObjectList additionally invalidates when a contained object
	// changes state.
	MaskObjectList = MaskIDList | MaskChange
)

// Has reports whether the mask includes t.
func (m EventMask) Has(t EventType) bool { return m&(1<<t) != 0 }

// Notification reports one query-result change.
type Notification struct {
	QueryKey string
	Type     EventType
	// Doc is the after-image that triggered the event (nil fields for
	// deletes). For changeIndex it is the repositioned document.
	Doc *document.Document
	// Index is the document's new position inside the windowed result for
	// sorted queries; -1 for stateless queries.
	Index int
	// Seq is the change-stream sequence number of the triggering write.
	Seq uint64
	// EventTime is when the write happened; DetectedAt when InvaliDB
	// matched it. DetectedAt − EventTime is the notification latency the
	// paper measures in Figure 12.
	EventTime  time.Time
	DetectedAt time.Time
}

// Registration activates a query in the pipeline.
type Registration struct {
	// Query to match. Must not be nil.
	Query *query.Query
	// Mask selects the delivered events (default MaskObjectList).
	Mask EventMask
	// InitialMatches is the full set of documents currently matching the
	// query *predicate* (for stateful queries this is the unwindowed match
	// set — InvaliDB "has to be aware of the result sets of all newly added
	// queries in order to maintain their correct state").
	InitialMatches []*document.Document
	// AsOfSeq is the change-stream sequence number the initial evaluation
	// reflects. Replay events with Seq > AsOfSeq close the activation gap.
	AsOfSeq uint64
	// AsOfSeqs carries per-object-row sequence floors for sharded
	// deployments, where each row follows one shard's independent Seq
	// space (indexed by row; missing/short slices fall back to AsOfSeq).
	AsOfSeqs []uint64
	// ReadReplay, when set, reads the recent change events to re-process
	// on activation ("all recently received objects are replayed for a
	// query when it is installed"), once the query is installed in its
	// cells. Read any earlier, an event published between the read and
	// the install could reach a cell before the query does and be matched
	// by nothing; read after, an event is either replayed or delivered
	// after the install — or both, which costs one spurious
	// invalidation. An error deactivates the query and is Activate's.
	ReadReplay func() ([]store.ChangeEvent, error)
}

// Common errors.
var (
	ErrStopped       = errors.New("invalidb: cluster is stopped")
	ErrNilQuery      = errors.New("invalidb: registration query must not be nil")
	ErrAtCapacity    = errors.New("invalidb: query capacity exhausted")
	ErrNotRegistered = errors.New("invalidb: query not registered")
)

// Config sizes the cluster.
type Config struct {
	// QueryPartitions is the number of columns; ObjectPartitions the number
	// of rows. Matching tasks = QueryPartitions × ObjectPartitions.
	// Defaults: 1 × 1.
	QueryPartitions  int
	ObjectPartitions int
	// Buffer is the channel depth between stages (default 1024).
	Buffer int
	// MaxQueries caps the number of active queries (0 = unlimited); this is
	// the raw capacity behind Quaestor's admission model.
	MaxQueries int
	// DisableQueryIndex turns off the per-cell inverted index over
	// registered queries, so every after-image is tested against every
	// query — the O(N·Q) baseline. Benchmarks use it to measure the
	// candidate-pruning speedup.
	DisableQueryIndex bool
	// Placement overrides the object-partition row for a document id
	// (result is taken modulo ObjectPartitions). A sharded deployment
	// passes the cluster ShardMap's placement so each row consumes
	// exactly one shard's ordered change stream — the paper's
	// query×object matrix keyed off the same shard map that routes
	// writes. Nil: FNV hash of the id.
	Placement func(docID string) int
	// Clock supplies timestamps (default time.Now).
	Clock func() time.Time
}

func (c *Config) withDefaults() Config {
	out := Config{QueryPartitions: 1, ObjectPartitions: 1, Buffer: 1024, Clock: time.Now}
	if c == nil {
		return out
	}
	if c.QueryPartitions > 0 {
		out.QueryPartitions = c.QueryPartitions
	}
	if c.ObjectPartitions > 0 {
		out.ObjectPartitions = c.ObjectPartitions
	}
	if c.Buffer > 0 {
		out.Buffer = c.Buffer
	}
	out.MaxQueries = c.MaxQueries
	out.DisableQueryIndex = c.DisableQueryIndex
	out.Placement = c.Placement
	if c.Clock != nil {
		out.Clock = c.Clock
	}
	return out
}

// Cluster is a running InvaliDB deployment.
type Cluster struct {
	cfg   Config
	nodes [][]*matchNode // [objectPartition][queryPartition]

	orderCh []chan rawEvent // order layer, partitioned by query
	orders  []*orderTask

	out  chan Notification
	done chan struct{}

	mu     sync.Mutex
	active map[string]*activeQuery // by query key
	// queries is len(active), for the attached-store pumps to read
	// without mu.
	queries   atomic.Int64
	attached  []*attachedStore
	stopped   bool
	wg        sync.WaitGroup
	detected  atomic.Uint64
	ingested  atomic.Uint64
	evaluated atomic.Uint64 // candidate query predicate evaluations
	inflight  atomic.Int64  // events accepted but not yet fully matched
	// disorder counts attached-stream events whose Seq was not strictly
	// increasing — the assertion that replaced this layer's own per-key
	// reordering machinery now that the commit pipeline owns ordering.
	disorder atomic.Uint64
	clock    func() time.Time
}

type activeQuery struct {
	q    *query.Query
	mask EventMask
	col  int
}

// NewCluster builds and starts an InvaliDB cluster.
func NewCluster(cfg *Config) *Cluster {
	conf := cfg.withDefaults()
	c := &Cluster{
		cfg:    conf,
		out:    make(chan Notification, conf.Buffer),
		done:   make(chan struct{}),
		active: map[string]*activeQuery{},
		clock:  conf.Clock,
	}
	c.nodes = make([][]*matchNode, conf.ObjectPartitions)
	for row := range c.nodes {
		c.nodes[row] = make([]*matchNode, conf.QueryPartitions)
		for col := range c.nodes[row] {
			n := newMatchNode(c, row, col, conf.Buffer)
			c.nodes[row][col] = n
			c.wg.Add(1)
			go n.run(&c.wg)
		}
	}
	// Order layer: one task per query partition, so order state for a
	// single query lives in exactly one place ("maintains order-related
	// state in a separate processing layer partitioned by query").
	c.orderCh = make([]chan rawEvent, conf.QueryPartitions)
	c.orders = make([]*orderTask, conf.QueryPartitions)
	for i := range c.orderCh {
		c.orderCh[i] = make(chan rawEvent, conf.Buffer)
		c.orders[i] = newOrderTask(c, c.orderCh[i])
		c.wg.Add(1)
		go c.orders[i].run(&c.wg)
	}
	return c
}

// hash32 routes strings to partitions: 32-bit FNV-1a, computed in place
// (the ingest pump hashes every event's id).
func hash32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (c *Cluster) queryColumn(queryKey string) int {
	return int(hash32(queryKey) % uint32(c.cfg.QueryPartitions))
}

func (c *Cluster) objectRow(docID string) int {
	if c.cfg.Placement != nil {
		return c.cfg.Placement(docID) % c.cfg.ObjectPartitions
	}
	return int(hash32(docID) % uint32(c.cfg.ObjectPartitions))
}

// Notifications returns the stream of invalidation events. The channel
// closes after Stop.
func (c *Cluster) Notifications() <-chan Notification { return c.out }

// sendMsg delivers m to a node unless the cluster stops first.
func (c *Cluster) sendMsg(n *matchNode, m nodeMsg) bool {
	select {
	case n.in <- m:
		return true
	case <-c.done:
		return false
	}
}

// sendOrder delivers a raw event to the order layer unless stopping.
func (c *Cluster) sendOrder(col int, ev rawEvent) bool {
	select {
	case c.orderCh[col] <- ev:
		return true
	case <-c.done:
		return false
	}
}

// Activate registers a query for continuous matching. The registration is
// installed on every matching task in the query's partition column; each
// cell keeps was-match state only for its own object partition.
func (c *Cluster) Activate(reg Registration) error {
	if reg.Query == nil {
		return ErrNilQuery
	}
	if reg.Mask == 0 {
		reg.Mask = MaskObjectList
	}
	key := reg.Query.Key()
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return ErrStopped
	}
	if _, ok := c.active[key]; ok {
		c.mu.Unlock()
		return nil // idempotent re-activation
	}
	if c.cfg.MaxQueries > 0 && len(c.active) >= c.cfg.MaxQueries {
		c.mu.Unlock()
		return fmt.Errorf("%w (%d active)", ErrAtCapacity, c.cfg.MaxQueries)
	}
	col := c.queryColumn(key)
	c.active[key] = &activeQuery{q: reg.Query, mask: reg.Mask, col: col}
	c.queries.Store(int64(len(c.active)))
	c.mu.Unlock()

	// Install order state first so windowed events produced by replay have
	// somewhere to land.
	if reg.Query.Stateful() {
		c.sendOrder(col, rawEvent{kind: rawActivate, queryKey: key, reg: &reg})
	}
	// Partition the initial match set by object row and install per-cell.
	byRow := make([][]*document.Document, c.cfg.ObjectPartitions)
	for _, d := range reg.InitialMatches {
		row := c.objectRow(d.ID)
		byRow[row] = append(byRow[row], d)
	}
	rowAsOf := func(row int) uint64 {
		if row < len(reg.AsOfSeqs) {
			return reg.AsOfSeqs[row]
		}
		return reg.AsOfSeq
	}
	for row := 0; row < c.cfg.ObjectPartitions; row++ {
		c.sendMsg(c.nodes[row][col], nodeMsg{activate: &nodeActivation{
			q:       reg.Query,
			mask:    reg.Mask,
			initial: byRow[row],
			asOf:    rowAsOf(row),
		}})
	}
	// Replay recent events through the normal ingestion path; the grid
	// routes them to the right cells. Events at or before the row's floor
	// are already reflected in InitialMatches. Floors are per row: in a
	// sharded deployment each row follows one shard's independent Seq
	// space, so a single global floor would over- or under-replay.
	var recent []store.ChangeEvent
	if reg.ReadReplay != nil {
		var err error
		if recent, err = reg.ReadReplay(); err != nil {
			_ = c.Deactivate(key) // ErrNotRegistered: a racing Deactivate did it
			return err
		}
	}
	var replay []store.ChangeEvent
	for _, ev := range recent {
		if ev.After == nil {
			continue // sequenced DDL: no document to match
		}
		if ev.Seq > rowAsOf(c.objectRow(ev.After.ID)) {
			replay = append(replay, ev)
		}
	}
	c.ingest(replay)
	return nil
}

// Deactivate removes a query from the pipeline.
func (c *Cluster) Deactivate(queryKey string) error {
	c.mu.Lock()
	aq, ok := c.active[queryKey]
	if !ok {
		c.mu.Unlock()
		return ErrNotRegistered
	}
	delete(c.active, queryKey)
	c.queries.Store(int64(len(c.active)))
	stopped := c.stopped
	c.mu.Unlock()
	if stopped {
		return nil
	}
	for row := 0; row < c.cfg.ObjectPartitions; row++ {
		c.sendMsg(c.nodes[row][aq.col], nodeMsg{deactivate: queryKey})
	}
	if aq.q.Stateful() {
		c.sendOrder(aq.col, rawEvent{kind: rawDeactivate, queryKey: queryKey})
	}
	return nil
}

// Ingest feeds one change event into the matching grid: it sends the
// event to every cell of its object-partition row. Callers that need
// end-to-end ordering must call Ingest from a single goroutine consuming
// an ordered stream; the routing-by-document-id ingestion layer that used
// to reconstruct per-record order here is gone now that the store's
// commit pipeline delivers events in strict global Seq order.
func (c *Cluster) Ingest(ev store.ChangeEvent) {
	c.ingest([]store.ChangeEvent{ev})
}

// ingest feeds a batch of change events into the matching grid: every
// cell of a row gets the batch's events of that row in one message, in
// order. Sequenced DDL rides the stream but carries no document; the
// cells skip it. The cells read events concurrently, so nothing may
// write them afterwards.
func (c *Cluster) ingest(events []store.ChangeEvent) {
	for row, evs := range c.rowsOf(events) {
		if len(evs) == 0 {
			continue
		}
		for _, n := range c.nodes[row] {
			c.inflight.Add(1)
			if !c.sendMsg(n, nodeMsg{events: evs}) {
				c.inflight.Add(-1)
			}
		}
	}
}

// rowsOf counts the batch's document events as ingested and groups them
// by object row, in order. When they all fall in one row — always with
// one row, and with a shard map's placement, where a row follows one
// shard's stream — that row gets the batch itself, uncopied. While no
// query is registered it groups nothing: no cell holds a query to match
// against, and a query activated later reflects these events in its
// initial evaluation or replays them from the commit log's ring, like
// every event before its activation.
func (c *Cluster) rowsOf(events []store.ChangeEvent) [][]store.ChangeEvent {
	docs := 0
	for i := range events {
		if events[i].After != nil {
			docs++
		}
	}
	c.ingested.Add(uint64(docs))
	if docs == 0 || c.queries.Load() == 0 {
		return nil
	}
	counts := make([]int, c.cfg.ObjectPartitions)
	first := -1
	for i := range events {
		if events[i].After != nil {
			row := c.objectRow(events[i].After.ID)
			if first < 0 {
				first = row
			}
			counts[row]++
		}
	}
	rows := make([][]store.ChangeEvent, c.cfg.ObjectPartitions)
	if counts[first] == docs {
		rows[first] = events
		return rows
	}
	for row, n := range counts {
		if n > 0 {
			rows[row] = make([]store.ChangeEvent, 0, n)
		}
	}
	for i := range events {
		if events[i].After != nil {
			row := c.objectRow(events[i].After.ID)
			rows[row] = append(rows[row], events[i])
		}
	}
	return rows
}

// attachedStore tracks pump progress for one subscribed store so Quiesce
// can account for events still sitting between the store and Ingest.
type attachedStore struct {
	st     *store.Store
	pumped atomic.Uint64
}

// AttachStore pumps a store's ordered change stream into the cluster, a
// delivered batch (one or more whole units) at a time, until the store
// closes or the cluster stops. It returns a cancel function. The pump
// asserts the commit pipeline's contract — strictly increasing Seq — and
// counts violations in OrderViolations. Synthetic
// events (a snapshot import's old-vs-imported diff) are exempt: they
// share the snapshot floor as their Seq by design, so a floor-sequenced
// run is not disorder — the batch as a whole still lands between the
// pre-import tail and the first post-import event.
func (c *Cluster) AttachStore(s *store.Store) func() {
	sub := s.SubscribeTail("invalidb")
	att := &attachedStore{st: s}
	c.mu.Lock()
	c.attached = append(c.attached, att)
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last uint64
		// Each delivered batch is the subscription's own: the cells share
		// it read-only.
		for batch := range sub.Events() {
			for i := range batch {
				if seq := batch[i].Seq; seq <= last && !batch[i].Synthetic {
					c.disorder.Add(1)
				} else if seq > last {
					last = seq
				}
			}
			c.ingest(batch)
			att.pumped.Store(last)
		}
	}()
	return func() {
		sub.Cancel()
		<-done
		c.mu.Lock()
		for i, a := range c.attached {
			if a == att {
				c.attached = append(c.attached[:i:i], c.attached[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
	}
}

// drained reports whether no event is in flight anywhere: between attached
// stores and Ingest, between stages, or inside a matching task. A pump
// stores its position only after Ingest has counted the event in flight,
// so the positions are read first: an event handed over between the two
// reads is then still counted by the in-flight read that follows.
func (c *Cluster) drained() bool {
	c.mu.Lock()
	attached := append([]*attachedStore(nil), c.attached...)
	c.mu.Unlock()
	for _, a := range attached {
		if a.pumped.Load() < a.st.LastSeq() {
			return false
		}
	}
	return c.inflight.Load() == 0
}

// Quiesce blocks until every ingested event has been fully matched (or the
// timeout elapses), returning whether the pipeline drained. Tests and the
// evaluation harness use this instead of sleeping.
func (c *Cluster) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.drained() {
			return true
		}
		time.Sleep(200 * time.Microsecond)
	}
	return c.drained()
}

// ActiveQueries returns the number of registered queries.
func (c *Cluster) ActiveQueries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.active)
}

// MatchingNodes returns the grid size (rows × columns).
func (c *Cluster) MatchingNodes() int {
	return c.cfg.ObjectPartitions * c.cfg.QueryPartitions
}

// Stats reports (ingested events, emitted notifications).
func (c *Cluster) Stats() (ingested, notifications uint64) {
	return c.ingested.Load(), c.detected.Load()
}

// EvaluatedMatches returns how many (event, query) predicate evaluations
// the matching tasks have performed. With the inverted query index this
// counts only candidate queries, so the ratio against
// ingested × registered queries measures the index's pruning power.
func (c *Cluster) EvaluatedMatches() uint64 { return c.evaluated.Load() }

// OrderViolations returns how many attached-stream events arrived with a
// non-increasing Seq. The commit pipeline guarantees this stays zero;
// the property tests assert it.
func (c *Cluster) OrderViolations() uint64 { return c.disorder.Load() }

// emit delivers a notification, stamping detection time. Blocks for
// backpressure rather than dropping; drops only during shutdown.
func (c *Cluster) emit(n Notification) {
	n.DetectedAt = c.clock()
	select {
	case c.out <- n:
		c.detected.Add(1)
	case <-c.done:
	}
}

// forwardToOrder hands a raw predicate-level event to the order layer.
func (c *Cluster) forwardToOrder(ev rawEvent) {
	c.inflight.Add(1)
	if !c.sendOrder(c.queryColumn(ev.queryKey), ev) {
		c.inflight.Add(-1)
	}
}

// Stop shuts the pipeline down and closes the notification channel.
// Events still in flight are dropped.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	close(c.done)
	c.wg.Wait()
	close(c.out)
}
