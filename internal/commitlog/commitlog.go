// Package commitlog implements Quaestor's ordered commit pipeline: the
// single place where committed writes become a change stream.
//
// The store decides write order once, in its stamp section: a write takes
// its Seq and its place in a queue — the WAL's commit queue on durable
// stores, an outbox on in-memory ones — under one lock, so the queue
// drains in Seq order by construction and is appended to a Log as is.
// Nothing here re-sorts, and nothing waits for a Seq that never commits.
// The Log retains recent events in a ring and fans them out to any number
// of subscribers, each with its own delivery pump, so that every consumer —
// InvaliDB ingestion, SSE change feeds, the per-table replay rings and
// log-shipping replicas — observes exactly the same totally-ordered
// stream the WAL persists.
//
// Subscribers choose a delivery policy: Block applies backpressure to the
// appender once the subscriber is a full ring behind (the default for
// correctness-critical consumers like InvaliDB), while DropOldest lets
// the ring overwrite unread events and counts the gap (for best-effort
// consumers). Per-subscriber lag, drop counters and a publish→deliver
// latency histogram are exported through Stats.
package commitlog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"quaestor/internal/document"
)

// ErrSeqTruncated is returned by Subscribe when the requested floor
// predates the fan-out ring's retention: events between fromSeq and the
// oldest retained event have been overwritten (or were published before
// this log opened), so a subscription could not be gapless. A replica
// receiving it must fall back to a coarser catch-up channel — shipped WAL
// segments, or a fresh snapshot bootstrap.
var ErrSeqTruncated = errors.New("commitlog: sequence truncated from fan-out ring")

// OpType identifies the kind of write that produced a change event.
type OpType int

// Write operation kinds carried on the change stream.
const (
	OpInsert OpType = iota
	OpUpdate
	OpDelete
	// OpCreateIndex is sequenced DDL: an index creation that consumed a
	// slot in the global write order, so replicas and late subscribers
	// learn new indexes live, in position, instead of only via
	// re-bootstrap. DDL events carry no document — After is nil and Path
	// names the indexed field.
	OpCreateIndex
)

// String implements fmt.Stringer.
func (o OpType) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	case OpCreateIndex:
		return "create-index"
	default:
		return fmt.Sprintf("OpType(%d)", int(o))
	}
}

// Event is one write's after-image as published on the change stream.
// For deletes, After carries the id with nil fields and Deleted is true.
type Event struct {
	Seq     uint64 // global, strictly increasing sequence number
	Table   string
	Op      OpType
	Deleted bool
	// Synthetic marks an event that does not correspond to a single
	// logged write: a snapshot import publishes the diff between the old
	// and imported state as synthetic events so local subscribers
	// (InvaliDB, SSE, replay rings) converge without waiting for organic
	// writes. Synthetic events share the snapshot floor as their Seq —
	// the one sanctioned exception to the strictly-increasing contract —
	// and are never re-logged to the WAL.
	Synthetic bool
	// Before is the pre-image (nil for inserts). After is the after-image
	// (content at Seq; for deletes only ID/Version are meaningful). Both
	// are the store's own copy-on-write documents — never mutated after
	// they were stored, so safe to retain, and read-only for consumers.
	Before *document.Document
	After  *document.Document
	// Path is the indexed field path for OpCreateIndex events; empty on
	// document events.
	Path string
	Time time.Time
}

// Key returns the record's cache/EBF key ("table/id"). DDL events carry
// no document; their key is the table-level DDL key.
func (e *Event) Key() string {
	if e.After == nil {
		return e.Table + "/#index:" + e.Path
	}
	return e.Table + "/" + e.After.ID
}

// Policy selects how a subscriber behaves when it cannot keep up.
type Policy int

const (
	// Block applies backpressure: the appender stalls once this subscriber
	// is a full ring behind, so the subscriber never misses an event.
	Block Policy = iota
	// DropOldest lets the ring overwrite unread events; the subscriber
	// skips ahead to the oldest retained event and the gap is counted in
	// its Dropped statistic.
	DropOldest
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == DropOldest {
		return "drop-oldest"
	}
	return "block"
}

// batchMax bounds how many events one delivery batch carries.
const batchMax = 256

// batchChanDepth is the per-subscriber batch channel buffer.
const batchChanDepth = 8

// Options configures a Log. The zero value is usable.
type Options struct {
	// Ring is the number of recent events retained for fan-out and
	// Subscribe(fromSeq) catch-up (default 4096).
	Ring int
	// ReplayPerTable sizes the per-table replay rings used for query
	// activation (default 4096).
	ReplayPerTable int
	// StartSeq is the sequence number of the last write already applied
	// before the log opened (recovery); subscribers tail from here.
	StartSeq uint64
	// Clock supplies timestamps for latency accounting (default time.Now).
	Clock func() time.Time
}

func (o *Options) withDefaults() Options {
	out := Options{Ring: 4096, ReplayPerTable: 4096, Clock: time.Now}
	if o == nil {
		return out
	}
	if o.Ring > 0 {
		out.Ring = o.Ring
	}
	if o.ReplayPerTable > 0 {
		out.ReplayPerTable = o.ReplayPerTable
	}
	out.StartSeq = o.StartSeq
	if o.Clock != nil {
		out.Clock = o.Clock
	}
	return out
}

// entry is one ring slot: the event plus its publish time.
type entry struct {
	ev Event
	at time.Time
}

// Log is the ordered fan-out core. Append accepts events in strictly
// increasing Seq order (the store's stamp section produces it) and never
// sends on subscriber channels itself; per-subscriber pump goroutines
// deliver batches, so one slow consumer cannot reorder or stall another.
type Log struct {
	opts Options

	mu    sync.Mutex
	data  *sync.Cond // signaled when events are appended or the log closes
	space *sync.Cond // signaled when cursors advance or subscribers leave
	ring  []entry
	pos   uint64 // next append position; retained range is [pos-len(ring), pos)

	lastSeq   uint64
	published uint64
	// truncSeq is the newest Seq no longer retained: StartSeq at open
	// (events up to it predate this log), then the Seq of each event the
	// ring overwrites. Subscribe can serve any floor >= truncSeq gaplessly.
	truncSeq uint64
	subs     map[int]*Subscription
	nextID   int
	closed   bool

	replays map[string]*ring

	lat latencyHist
}

// NewLog creates an empty commit log.
func NewLog(opts *Options) *Log {
	o := opts.withDefaults()
	l := &Log{
		opts:     o,
		ring:     make([]entry, o.Ring),
		lastSeq:  o.StartSeq,
		truncSeq: o.StartSeq,
		subs:     map[int]*Subscription{},
		replays:  map[string]*ring{},
	}
	l.data = sync.NewCond(&l.mu)
	l.space = sync.NewCond(&l.mu)
	return l
}

// ringFullLocked reports whether appending one more event would overwrite
// an event a Block-policy subscriber has not consumed yet.
func (l *Log) ringFullLocked() bool {
	n := uint64(len(l.ring))
	if l.pos < n {
		return false
	}
	for _, s := range l.subs {
		if s.policy == Block && l.pos-s.cursor >= n {
			return true
		}
	}
	return false
}

// Append publishes a batch of events. The caller must deliver events in
// strictly increasing Seq order across all Append calls and must not let
// two calls overlap (a batch can yield the lock mid-way when the ring is
// full) — the store serializes its appenders on one publish lock. (The
// one exception to increasing Seqs is a snapshot import's diff, whose
// events share the snapshot floor as their Seq and are flagged
// Synthetic.) Append blocks only when a Block-policy subscriber is a full
// ring behind; on a closed log it is a no-op.
func (l *Log) Append(events []Event) {
	if len(events) == 0 {
		return
	}
	now := l.opts.Clock()
	l.mu.Lock()
	for i := range events {
		for !l.closed && l.ringFullLocked() {
			// Wake pumps first so a full ring is actually being drained.
			l.data.Broadcast()
			l.space.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		ev := events[i]
		slot := l.pos % uint64(len(l.ring))
		if l.pos >= uint64(len(l.ring)) {
			// Overwriting the oldest retained event moves the truncation
			// horizon: floors below it can no longer be served gaplessly.
			l.truncSeq = l.ring[slot].ev.Seq
		}
		l.ring[slot] = entry{ev: ev, at: now}
		l.pos++
		l.lastSeq = ev.Seq
		l.published++
		r, ok := l.replays[ev.Table]
		if !ok {
			r = newRing(l.opts.ReplayPerTable)
			l.replays[ev.Table] = r
		}
		r.push(ev)
	}
	l.mu.Unlock()
	l.data.Broadcast()
}

// Truncate raises the log's truncation horizon: floors below seq can no
// longer be served gaplessly. A store that imports a snapshot calls
// this with the snapshot's floor — the collapsed range was never
// appended to this log, and without moving the horizon a subscriber
// attaching from inside it would be silently fast-forwarded over
// history it never saw (the gap ErrSeqTruncated exists to refuse).
func (l *Log) Truncate(seq uint64) {
	l.mu.Lock()
	if seq > l.truncSeq {
		l.truncSeq = seq
	}
	l.mu.Unlock()
}

// Replay returns the buffered recent events for a table with
// Seq > afterSeq, oldest first.
func (l *Log) Replay(table string, afterSeq uint64) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.replays[table]
	if !ok {
		return nil
	}
	return r.after(afterSeq)
}

// SubscribeTail registers a subscriber that receives only events appended
// after this call.
func (l *Log) SubscribeTail(name string, policy Policy) *Subscription {
	l.mu.Lock()
	return l.subscribeLocked(name, l.pos, policy)
}

// Subscribe registers a subscriber that first receives every retained
// event with Seq > fromSeq (catch-up through the ring), then the live
// tail. When fromSeq predates the ring's retention the subscription would
// have a gap, so Subscribe refuses with ErrSeqTruncated — the caller must
// catch up through shipped WAL segments or a snapshot bootstrap first.
func (l *Log) Subscribe(name string, fromSeq uint64, policy Policy) (*Subscription, error) {
	l.mu.Lock()
	if fromSeq < l.truncSeq {
		oldest := l.truncSeq
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: from %d, oldest gapless floor is %d", ErrSeqTruncated, fromSeq, oldest)
	}
	n := uint64(len(l.ring))
	start := uint64(0)
	if l.pos > n {
		start = l.pos - n
	}
	cursor := l.pos
	for p := start; p < l.pos; p++ {
		if l.ring[p%n].ev.Seq > fromSeq {
			cursor = p
			break
		}
	}
	return l.subscribeLocked(name, cursor, policy), nil
}

// subscribeLocked installs the subscription and starts its pump. The
// caller holds l.mu; subscribeLocked releases it.
func (l *Log) subscribeLocked(name string, cursor uint64, policy Policy) *Subscription {
	s := &Subscription{
		log:    l,
		name:   name,
		policy: policy,
		ch:     make(chan []Event, batchChanDepth),
		abort:  make(chan struct{}),
		done:   make(chan struct{}),
		cursor: cursor,
	}
	if l.closed {
		l.mu.Unlock()
		close(s.ch)
		close(s.done)
		return s
	}
	s.id = l.nextID
	l.nextID++
	l.subs[s.id] = s
	l.mu.Unlock()
	go s.run()
	return s
}

// Close shuts the log down: appends become no-ops and blocked appenders
// are released. Each subscription's pump drains the events it has not
// delivered yet, then closes its channel — a consumer that neither reads
// nor cancels keeps its pump parked until it does either.
func (l *Log) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	l.data.Broadcast()
	l.space.Broadcast()
}

// SubscriberStats describes one subscriber's progress.
type SubscriberStats struct {
	Name      string `json:"name"`
	Policy    string `json:"policy"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	// LagEvents is how many published events the subscriber has not yet
	// received; LagSeq is the Seq delta between the newest published
	// event and the subscriber's newest delivered one.
	LagEvents uint64 `json:"lagEvents"`
	LagSeq    uint64 `json:"lagSeq"`
}

// Stats is a point-in-time snapshot of pipeline activity.
type Stats struct {
	LastSeq uint64 `json:"lastSeq"`
	// TruncSeq is the newest Seq evicted from the fan-out ring; Subscribe
	// floors below it return ErrSeqTruncated (replicas fall back to WAL
	// segment shipping).
	TruncSeq    uint64            `json:"truncSeq"`
	Published   uint64            `json:"published"`
	Subscribers []SubscriberStats `json:"subscribers,omitempty"`
	// Latency is the publish→deliver latency histogram (per batch,
	// measured from append to hand-off into the subscriber channel).
	Latency LatencySummary `json:"publishToDeliver"`
}

// Stats reports the log's counters and per-subscriber progress.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	st := Stats{LastSeq: l.lastSeq, TruncSeq: l.truncSeq, Published: l.published}
	for _, s := range l.subs {
		sub := SubscriberStats{
			Name:      s.name,
			Policy:    s.policy.String(),
			Delivered: s.delivered,
			Dropped:   s.dropped,
			LagEvents: l.pos - s.cursor,
		}
		if s.lastSeq > 0 && l.lastSeq > s.lastSeq {
			sub.LagSeq = l.lastSeq - s.lastSeq
		} else if s.lastSeq == 0 && s.delivered == 0 {
			sub.LagSeq = sub.LagEvents
		}
		st.Subscribers = append(st.Subscribers, sub)
	}
	l.mu.Unlock()
	sort.Slice(st.Subscribers, func(i, j int) bool { return st.Subscribers[i].Name < st.Subscribers[j].Name })
	st.Latency = l.lat.summary()
	return st
}

// Subscription is one consumer's ordered view of the commit log. Events
// arrive as batches of contiguous, strictly Seq-ordered events — the
// delivery shape a log-shipping replica wants — and Flatten adapts the
// stream to a per-event channel for simpler consumers.
type Subscription struct {
	log    *Log
	id     int
	name   string
	policy Policy
	ch     chan []Event
	abort  chan struct{} // closed by Cancel to interrupt a blocked send
	done   chan struct{} // closed when the pump exits (cancel or log close)

	// Guarded by log.mu.
	cursor    uint64
	delivered uint64
	dropped   uint64
	lastSeq   uint64
	cancelled bool
}

// Events returns the ordered batch stream. The channel closes when the
// subscription is cancelled or the log closes.
func (s *Subscription) Events() <-chan []Event { return s.ch }

// Done is closed once the subscription has fully shut down.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Cancel detaches the subscription; idempotent.
func (s *Subscription) Cancel() {
	s.log.mu.Lock()
	if s.cancelled {
		s.log.mu.Unlock()
		return
	}
	s.cancelled = true
	close(s.abort)
	s.log.mu.Unlock()
	s.log.data.Broadcast()
}

// run is the delivery pump: it copies contiguous event runs out of the
// ring and hands them to the subscriber channel. The cursor only advances
// after a batch is handed off, which is what lets Block-policy
// subscribers hold back the appender instead of losing events.
func (s *Subscription) run() {
	l := s.log
	for {
		l.mu.Lock()
		for s.cursor == l.pos && !l.closed && !s.cancelled {
			l.data.Wait()
		}
		if s.cancelled || (l.closed && s.cursor == l.pos) {
			s.exitLocked()
			return
		}
		n := uint64(len(l.ring))
		if l.pos-s.cursor > n {
			// Only DropOldest subscribers can be lapped: Block cursors
			// gate the appender via ringFullLocked.
			d := l.pos - n - s.cursor
			s.dropped += d
			s.cursor += d
		}
		count := l.pos - s.cursor
		if count > batchMax {
			count = batchMax
		}
		start := s.cursor
		at := l.ring[start%n].at
		// A Block cursor gates the appender (ringFullLocked), so the slots
		// in [cursor, cursor+count) cannot be overwritten until the cursor
		// advances — copy them without the lock, keeping a large memcpy out
		// of the appender's critical path. DropOldest slots can be
		// overwritten at any time; copy those under the lock.
		if s.policy == Block {
			l.mu.Unlock()
		}
		batch := make([]Event, count)
		for i := uint64(0); i < count; i++ {
			batch[i] = l.ring[(start+i)%n].ev
		}
		if s.policy != Block {
			l.mu.Unlock()
		}

		select {
		case s.ch <- batch:
		case <-s.abort:
			l.mu.Lock()
			s.exitLocked()
			return
		}
		l.lat.observe(l.opts.Clock().Sub(at))

		l.mu.Lock()
		s.cursor += count
		s.delivered += count
		s.lastSeq = batch[count-1].Seq
		l.mu.Unlock()
		l.space.Broadcast()
	}
}

// exitLocked removes the subscription and closes its channels. The
// caller holds log.mu; exitLocked releases it.
func (s *Subscription) exitLocked() {
	delete(s.log.subs, s.id)
	s.log.mu.Unlock()
	s.log.space.Broadcast()
	close(s.ch)
	close(s.done)
}

// Flatten adapts the batch stream to a buffered per-event channel. The
// returned cancel function detaches the underlying subscription and lets
// in-flight events drop; without a cancel, every event is delivered and
// the channel closes once the subscription shuts down (log close drains
// the backlog first).
func (s *Subscription) Flatten(buf int) (<-chan Event, func()) {
	ch := make(chan Event, buf)
	go func() {
		defer close(ch)
		for batch := range s.ch {
			for i := range batch {
				select {
				case ch <- batch[i]:
				case <-s.abort:
					// Cancelled: the consumer is gone, stop forwarding.
					return
				}
			}
		}
	}()
	return ch, s.Cancel
}

// ring is a bounded FIFO of recent events, used per table for query
// activation replay.
type ring struct {
	events []Event
	head   int // index of oldest
	size   int
}

func newRing(capacity int) *ring {
	return &ring{events: make([]Event, capacity)}
}

func (r *ring) push(ev Event) {
	if len(r.events) == 0 {
		return
	}
	idx := (r.head + r.size) % len(r.events)
	if r.size == len(r.events) {
		// Overwrite oldest.
		r.events[r.head] = ev
		r.head = (r.head + 1) % len(r.events)
		return
	}
	r.events[idx] = ev
	r.size++
}

// after returns the events with Seq > seq, oldest first. Seq never
// decreases along the ring (synthetic events repeat their floor), so the
// answer is a suffix: walk back from the newest event to find where it
// starts, and copy exactly that many. An activation that replays a gap of
// zero or a few events costs that, not the ring's capacity.
func (r *ring) after(seq uint64) []Event {
	n := 0
	for n < r.size && r.at(r.size-1-n).Seq > seq {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = *r.at(r.size - n + i)
	}
	return out
}

// at returns the i-th oldest buffered event.
func (r *ring) at(i int) *Event {
	return &r.events[(r.head+i)%len(r.events)]
}

// latBounds are the publish→deliver histogram bucket upper bounds in
// microseconds; the final bucket is open-ended.
var latBounds = [...]int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}

// latencyHist is a fixed-bucket latency histogram with atomic counters,
// cheap enough to observe on every delivered batch.
type latencyHist struct {
	counts [len(latBounds) + 1]atomic.Uint64
	sumUs  atomic.Int64
	n      atomic.Uint64
}

func (h *latencyHist) observe(d time.Duration) {
	us := d.Microseconds()
	i := sort.Search(len(latBounds), func(i int) bool { return us <= latBounds[i] })
	h.counts[i].Add(1)
	h.sumUs.Add(us)
	h.n.Add(1)
}

// LatencyBucket is one histogram bucket; LeMicros 0 marks the open-ended
// overflow bucket.
type LatencyBucket struct {
	LeMicros int64  `json:"leMicros"`
	Count    uint64 `json:"count"`
}

// LatencySummary reports the histogram plus its mean.
type LatencySummary struct {
	Batches    uint64          `json:"batches"`
	MeanMicros float64         `json:"meanMicros"`
	Buckets    []LatencyBucket `json:"buckets,omitempty"`
}

func (h *latencyHist) summary() LatencySummary {
	out := LatencySummary{Batches: h.n.Load()}
	if out.Batches > 0 {
		out.MeanMicros = float64(h.sumUs.Load()) / float64(out.Batches)
	}
	for i, le := range latBounds {
		if c := h.counts[i].Load(); c > 0 {
			out.Buckets = append(out.Buckets, LatencyBucket{LeMicros: le, Count: c})
		}
	}
	if c := h.counts[len(latBounds)].Load(); c > 0 {
		out.Buckets = append(out.Buckets, LatencyBucket{Count: c})
	}
	return out
}
