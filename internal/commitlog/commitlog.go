// Package commitlog implements Quaestor's ordered commit pipeline: the
// single place where committed writes become a change stream.
//
// The store decides write order once, in its stamp section: a write takes
// its Seq and its place in a queue — the WAL's commit queue on durable
// stores, an outbox on in-memory ones — under one lock, so the queue
// drains in Seq order by construction and is appended to a Log as is.
// Nothing here re-sorts, and nothing waits for a Seq that never commits.
// The Log retains recent events in one ring and fans them out to any
// number of subscribers, each with its own delivery pump, so that every
// consumer — InvaliDB ingestion, SSE change feeds and log-shipping
// replicas — observes exactly the same totally-ordered stream the WAL
// persists. The same ring is the history query activation replays
// (Replay), and it has one truncation horizon: a floor it no longer
// covers is refused with ErrSeqTruncated, never served with a gap.
//
// A subscriber that falls a full ring behind holds the appender back
// until it catches up, so no subscriber ever misses an event.
// Per-subscriber lag and a publish→deliver latency histogram are
// exported through Stats.
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

// ErrSeqTruncated is returned by Subscribe and Replay when the requested
// floor predates the fan-out ring's retention: events between the floor
// and the oldest retained event have been overwritten (or were published
// before this log opened), so neither a subscription nor a replay could
// be gapless. A replica receiving it must fall back to a coarser catch-up
// channel — shipped WAL segments, or a fresh snapshot bootstrap; a query
// activation receiving it does not cache the query.
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
	// (InvaliDB, SSE) converge without waiting for organic writes.
	// Synthetic events share the snapshot floor as their Seq —
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

// batchMax bounds how many events one delivery batch carries.
const batchMax = 256

// batchChanDepth is the per-subscriber batch channel buffer.
const batchChanDepth = 8

// Options configures a Log. The zero value is usable.
type Options struct {
	// Ring is the number of recent events retained for fan-out,
	// Subscribe(fromSeq) catch-up and activation Replay (default 4096).
	Ring int
	// StartSeq is the sequence number of the last write already applied
	// before the log opened (recovery); subscribers tail from here.
	StartSeq uint64
	// Clock supplies timestamps for latency accounting (default time.Now).
	Clock func() time.Time
}

func (o *Options) withDefaults() Options {
	out := Options{Ring: 4096, Clock: time.Now}
	if o == nil {
		return out
	}
	if o.Ring > 0 {
		out.Ring = o.Ring
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
	// ring overwrites. Subscribe and Replay serve any floor >= truncSeq
	// gaplessly.
	truncSeq uint64
	subs     map[int]*Subscription
	nextID   int
	closed   bool

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
	}
	l.data = sync.NewCond(&l.mu)
	l.space = sync.NewCond(&l.mu)
	return l
}

// ringFullLocked reports whether appending one more event would overwrite
// an event a subscriber has not consumed yet.
func (l *Log) ringFullLocked() bool {
	n := uint64(len(l.ring))
	if l.pos < n {
		return false
	}
	for _, s := range l.subs {
		if l.pos-s.cursor >= n {
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
// Synthetic.) Append blocks only when a subscriber is a full ring behind;
// on a closed log it is a no-op.
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

// suffixLocked returns the ring position of the oldest retained event
// with Seq > afterSeq (l.pos when there is none), or ErrSeqTruncated when
// afterSeq predates the ring's retention. Seq never decreases along the
// ring (synthetic events repeat their floor), so the answer is a suffix:
// it walks back from the newest event, and a recent floor costs the
// events after it, not the ring's capacity. Caller holds l.mu.
func (l *Log) suffixLocked(afterSeq uint64) (uint64, error) {
	if afterSeq < l.truncSeq {
		return 0, fmt.Errorf("%w: from %d, oldest gapless floor is %d", ErrSeqTruncated, afterSeq, l.truncSeq)
	}
	n := uint64(len(l.ring))
	oldest := l.pos - min(l.pos, n)
	p := l.pos
	for p > oldest && l.ring[(p-1)%n].ev.Seq > afterSeq {
		p--
	}
	return p, nil
}

// Replay returns the retained events of table with Seq > afterSeq, oldest
// first — the history a query activation replays to close the gap between
// evaluating the query and installing it. An empty gap returns nil and
// allocates nothing. When afterSeq predates the ring's retention the gap
// cannot be replayed whole, and Replay returns ErrSeqTruncated instead of
// the part it still holds.
func (l *Log) Replay(table string, afterSeq uint64) ([]Event, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start, err := l.suffixLocked(afterSeq)
	if err != nil {
		return nil, err
	}
	n := uint64(len(l.ring))
	count := 0
	for p := start; p < l.pos; p++ {
		if l.ring[p%n].ev.Table == table {
			count++
		}
	}
	if count == 0 {
		return nil, nil
	}
	out := make([]Event, 0, count)
	for p := start; p < l.pos; p++ {
		if e := &l.ring[p%n].ev; e.Table == table {
			out = append(out, *e)
		}
	}
	return out, nil
}

// SubscribeTail registers a subscriber that receives only events appended
// after this call.
func (l *Log) SubscribeTail(name string) *Subscription {
	l.mu.Lock()
	return l.subscribeLocked(name, l.pos)
}

// Subscribe registers a subscriber that first receives every retained
// event with Seq > fromSeq (catch-up through the ring), then the live
// tail. When fromSeq predates the ring's retention the subscription would
// have a gap, so Subscribe refuses with ErrSeqTruncated — the caller must
// catch up through shipped WAL segments or a snapshot bootstrap first.
func (l *Log) Subscribe(name string, fromSeq uint64) (*Subscription, error) {
	l.mu.Lock()
	cursor, err := l.suffixLocked(fromSeq)
	if err != nil {
		l.mu.Unlock()
		return nil, err
	}
	return l.subscribeLocked(name, cursor), nil
}

// subscribeLocked installs the subscription and starts its pump. The
// caller holds l.mu; subscribeLocked releases it.
func (l *Log) subscribeLocked(name string, cursor uint64) *Subscription {
	s := &Subscription{
		log:    l,
		name:   name,
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
	Delivered uint64 `json:"delivered"`
	// Dropped is always 0: a subscriber a full ring behind holds the
	// appender back instead of losing events. The field stays for the
	// consumers of the stats schema.
	Dropped uint64 `json:"dropped"`
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
	// floors below it return ErrSeqTruncated (replicas re-bootstrap from
	// a snapshot).
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
			Delivered: s.delivered,
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
	log   *Log
	id    int
	name  string
	ch    chan []Event
	abort chan struct{} // closed by Cancel to interrupt a blocked send
	done  chan struct{} // closed when the pump exits (cancel or log close)

	// Guarded by log.mu.
	cursor    uint64
	delivered uint64
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
// after a batch is handed off, which is what lets a subscriber hold back
// the appender instead of losing events.
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
		count := min(l.pos-s.cursor, batchMax)
		start := s.cursor
		at := l.ring[start%n].at
		// The cursor gates the appender (ringFullLocked), so the slots in
		// [cursor, cursor+count) cannot be overwritten until it advances —
		// copy them without the lock, keeping a large memcpy out of the
		// appender's critical path.
		l.mu.Unlock()
		batch := make([]Event, count)
		for i := uint64(0); i < count; i++ {
			batch[i] = l.ring[(start+i)%n].ev
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
