// Package replication implements Quaestor's log-shipping replication:
// replicas that bootstrap from a primary snapshot and then follow the
// primary's ordered commit pipeline over HTTP, applying batches through
// the store's recovery-style idempotent apply path.
//
// The paper's DBaaS setting assumes the backing store survives node loss
// and keeps serving reads while invalidations flow; this package supplies
// that property for the single-node store. The design follows the
// log-shipping architecture of replicated cloud data systems: the commit
// pipeline already delivers contiguous, strictly Seq-ordered batches
// (store.SubscribeFrom), which is exactly the replica feed, and the WAL's
// record format is the wire format.
//
// A replica escalates through three catch-up channels, coarsest last:
//
//  1. the fan-out ring — SubscribeFrom(lastSeq) streams retained events
//     plus the live tail (GET /v1/replication/stream);
//  2. sealed WAL segments — history older than the ring but newer than
//     the primary's snapshot floor (GET /v1/replication/wal);
//  3. a full snapshot bootstrap — when even the log has been truncated
//     past the replica's position (GET /v1/replication/snapshot).
//
// Re-delivery across channel switches and reconnects is harmless: the
// apply path skips records at or below the replica's sequence, so a
// re-delivered batch is a no-op. The replica maintains its own WAL and
// indexes, serves reads with a reported staleness bound, and can be
// promoted to a writable primary (its own pipeline keeps serving its
// subscribers across the transition).
package replication

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"encoding/json"

	"quaestor/internal/commitlog"
	"quaestor/internal/store"
	"quaestor/internal/wal"
)

// Frame is one unit of the replication stream: a batch of contiguous,
// Seq-ordered records plus the primary's progress. Frames without
// records are heartbeats — they carry the primary's LastSeq so an idle
// replica can still bound its staleness.
type Frame struct {
	Recs []wal.Record `json:"recs,omitempty"`
	// LastSeq is the primary's newest assigned sequence at send time.
	LastSeq uint64 `json:"lastSeq"`
	// At is the primary's wall clock at send time (Unix nanoseconds).
	At int64 `json:"at"`
}

// Stream endpoint headers.
const (
	// HeaderSnapshotSeq carries the primary's snapshot floor on WAL
	// exports: records at or below it are gone from the log.
	HeaderSnapshotSeq = "X-Quaestor-Snapshot-Seq"
	// HeaderLastSeq carries the primary's newest sequence.
	HeaderLastSeq = "X-Quaestor-Last-Seq"
)

// EventsToRecords converts a commit-pipeline batch to shippable log
// records — the same Event→Record mapping the primary's write path uses
// when logging, so stream delivery and segment shipping are
// interchangeable on the replica.
func EventsToRecords(events []commitlog.Event) []wal.Record {
	return AppendRecords(nil, events)
}

// AppendRecords is EventsToRecords onto a reusable buffer: the pump that
// feeds an attached replica converts every batch the primary commits,
// and per-batch allocations there turn into GC pressure on the whole
// node.
func AppendRecords(dst []wal.Record, events []commitlog.Event) []wal.Record {
	for i := range events {
		ev := &events[i]
		rec := wal.Record{Seq: ev.Seq, Table: ev.Table}
		switch ev.Op {
		case commitlog.OpDelete:
			rec.Kind = wal.KindDelete
			rec.ID = ev.After.ID
			rec.Version = ev.After.Version
		case commitlog.OpCreateIndex:
			// Sequenced DDL rides the live stream in position, so a
			// connected replica learns the index without re-bootstrap.
			rec.Kind = wal.KindCreateIndex
			rec.Path = ev.Path
		default:
			rec.Kind = wal.KindPut
			rec.Doc = ev.After
		}
		dst = append(dst, rec)
	}
	return dst
}

// State names a replica's position in its lifecycle.
type State string

// Replica lifecycle states.
const (
	StateConnecting    State = "connecting"
	StateBootstrapping State = "bootstrapping"
	StateCatchingUp    State = "catching-up"
	StateStreaming     State = "streaming"
	StateStopped       State = "stopped"
	StatePromoted      State = "promoted"
	// StateDemoted marks a fenced ex-primary: a node that lost a failover
	// election while unreachable and, having come back, now refuses writes
	// (503) and advertises its successor via X-Quaestor-Primary. No Replica
	// loop runs in this state — it names the server-side fence so status
	// endpoints and stats report the node's role truthfully.
	StateDemoted State = "demoted"
)

// Options configures a Replica.
type Options struct {
	// Store is the replica's local store (typically opened read-only with
	// its own DataDir). Required.
	Store *store.Store
	// Primary is the primary server's base URL. Required.
	Primary string
	// Name identifies this replica in the primary's per-subscriber
	// pipeline stats (default "replica").
	Name string
	// Client performs the HTTP requests (default: a client with no
	// timeout — the stream is long-lived).
	Client *http.Client
	// Token is a bearer token for primaries with authorization enabled.
	Token string
	// Shard is the primary shard this replica follows: every replication
	// request carries shard=Shard, and the replica follows exactly that
	// shard's WAL, snapshot lineage, and commit pipeline. A node runs one
	// Replica loop per shard of its primary (shard 0 of a 1-shard one).
	Shard int
	// MinBackoff/MaxBackoff bound the reconnect backoff (defaults
	// 100ms/5s).
	MinBackoff, MaxBackoff time.Duration
	// Logf receives progress and reconnect messages (default: discard).
	Logf func(format string, args ...any)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Name == "" {
		out.Name = "replica"
	}
	if out.Client == nil {
		//lint:quaestor ctxdeadline -- the replication stream is long-lived by design; liveness comes from heartbeats and reconnect backoff, not a per-request deadline
		out.Client = &http.Client{}
	}
	if out.MinBackoff <= 0 {
		out.MinBackoff = 100 * time.Millisecond
	}
	if out.MaxBackoff <= 0 {
		out.MaxBackoff = 5 * time.Second
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// Replica follows a primary. Create with New, drive with Start (blocking
// — run it on its own goroutine or use Run), observe with Status, end
// with Stop or Promote.
type Replica struct {
	opts Options
	db   *store.Store

	mu          sync.Mutex
	state       State
	cancel      context.CancelFunc // cancels the in-flight attempt
	started     bool
	stopped     bool
	primarySeq  uint64    // newest LastSeq observed from the primary
	lastContact time.Time // last frame (or successful transfer) received
	freshAsOf   time.Time // last moment applied == primary's LastSeq

	bootstraps  uint64
	segCatchups uint64
	reconnects  uint64
	frames      uint64
	applied     uint64
	// synthDeletes/synthPuts accumulate the synthetic events re-bootstrap
	// imports published (the old-vs-imported state diff).
	synthDeletes uint64
	synthPuts    uint64

	stop chan struct{} // closed by Stop
	done chan struct{} // closed when the loop exits
}

// New creates a replica for opts without contacting the primary yet.
// The local store is put in read-only mode immediately.
func New(opts Options) *Replica {
	o := opts.withDefaults()
	o.Store.SetReadOnly(true)
	return &Replica{
		opts:  o,
		db:    o.Store,
		state: StateConnecting,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Run starts the replication loop on its own goroutine and returns.
// Running twice, or after Stop, is a no-op.
func (r *Replica) Run() {
	r.mu.Lock()
	if r.started || r.stopped {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	go r.loop()
}

// Done is closed when the replication loop has fully exited.
func (r *Replica) Done() <-chan struct{} { return r.done }

// Store returns the replica's local store.
func (r *Replica) Store() *store.Store { return r.db }

// loop reconnects forever (with capped backoff) until Stop or Promote.
func (r *Replica) loop() {
	defer close(r.done)
	backoff := r.opts.MinBackoff
	for {
		if r.isStopped() {
			r.setState(StateStopped)
			return
		}
		before := r.db.LastSeq()
		err := r.syncOnce()
		if r.isStopped() {
			r.setState(StateStopped)
			return
		}
		if err != nil {
			r.opts.Logf("replication: %v (reconnecting in %v)", err, backoff)
		}
		r.mu.Lock()
		r.reconnects++
		r.state = StateConnecting
		r.mu.Unlock()
		if r.db.LastSeq() > before {
			backoff = r.opts.MinBackoff // made progress: reset
		} else if backoff *= 2; backoff > r.opts.MaxBackoff {
			backoff = r.opts.MaxBackoff
		}
		select {
		case <-time.After(backoff):
		case <-r.stop:
		}
	}
}

// syncOnce runs one connection lifecycle: escalate through the catch-up
// channels until the live stream attaches, then apply it until it drops.
func (r *Replica) syncOnce() error {
	ctx, cancel := context.WithCancel(context.Background())
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		cancel()
		return nil
	}
	r.cancel = cancel
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.cancel = nil
		r.mu.Unlock()
		cancel()
	}()

	// A fresh replica always bootstraps, even when the primary's ring
	// still covers sequence 0: the snapshot's meta frame is what carries
	// table and secondary-index definitions, which the event stream does
	// not (indexes created on the primary after attach reach replicas
	// through shipped DDL records or a re-bootstrap, not the stream).
	if r.db.LastSeq() == 0 {
		if err := r.bootstrap(ctx); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
	}

	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return nil
		}
		from := r.db.LastSeq()
		resp, err := r.get(ctx, "/v1/replication/stream?from="+strconv.FormatUint(from, 10)+"&id="+url.QueryEscape(r.opts.Name))
		if err != nil {
			return err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			err := r.applyStream(resp.Body)
			resp.Body.Close()
			return err
		case http.StatusGone:
			// The ring no longer covers our position: catch up through
			// sealed WAL segments, or bootstrap when even those are gone.
			drain(resp)
			if attempt >= 8 {
				return fmt.Errorf("replication: no progress after %d catch-up rounds (position %d)", attempt, from)
			}
			if err := r.catchUp(ctx, from); err != nil {
				return err
			}
		default:
			err := fmt.Errorf("replication: stream: %s", httpStatus(resp))
			resp.Body.Close()
			return err
		}
	}
}

// applyStream decodes and applies frames until the connection drops.
func (r *Replica) applyStream(body io.Reader) error {
	r.setState(StateStreaming)
	dec := json.NewDecoder(body)
	for {
		var f Frame
		if err := dec.Decode(&f); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, context.Canceled) {
				return nil
			}
			return fmt.Errorf("replication: stream decode: %w", err)
		}
		if len(f.Recs) > 0 {
			n, err := r.db.ApplyReplicated(f.Recs)
			if err != nil {
				return err
			}
			r.mu.Lock()
			r.applied += uint64(n)
			r.mu.Unlock()
		}
		r.observe(f.LastSeq)
	}
}

// catchUp fetches the primary's sealed WAL segments and applies every
// record past our position; when the primary's snapshot floor has moved
// beyond us (or it has no WAL at all), it falls back to a full snapshot
// bootstrap.
func (r *Replica) catchUp(ctx context.Context, from uint64) error {
	r.setState(StateCatchingUp)
	resp, err := r.get(ctx, "/v1/replication/wal?after="+strconv.FormatUint(from, 10))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		floor, _ := strconv.ParseUint(resp.Header.Get(HeaderSnapshotSeq), 10, 64)
		if floor > from {
			// Records (from, floor] were truncated by a primary snapshot:
			// the log cannot reconstruct our gap.
			drain(resp)
			return r.bootstrap(ctx)
		}
		// Collect DDL plus doc records past our position, restore global
		// Seq order (appends from different shards interleave in the
		// file), and apply. Segment catch-up is rare enough that holding
		// the decoded batch in memory is fine.
		var recs []wal.Record
		err := wal.ScanReader(resp.Body, func(rec *wal.Record) error {
			if rec.Seq > from || rec.Kind == wal.KindCreateTable || rec.Kind == wal.KindCreateIndex {
				recs = append(recs, *rec)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("replication: scanning shipped segments: %w", err)
		}
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
		n, err := r.db.ApplyReplicated(recs)
		if err != nil {
			return err
		}
		r.mu.Lock()
		r.segCatchups++
		r.applied += uint64(n)
		r.lastContact = time.Now()
		r.mu.Unlock()
		return nil
	case http.StatusConflict, http.StatusNotFound:
		// In-memory primary: no log to ship, bootstrap instead.
		drain(resp)
		return r.bootstrap(ctx)
	default:
		return fmt.Errorf("replication: wal export: %s", httpStatus(resp))
	}
}

// bootstrap replaces the local state with a primary snapshot; the
// snapshot's floor becomes the position the stream resumes from.
func (r *Replica) bootstrap(ctx context.Context) error {
	r.setState(StateBootstrapping)
	resp, err := r.get(ctx, "/v1/replication/snapshot")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replication: snapshot: %s", httpStatus(resp))
	}
	info, err := r.db.ImportSnapshot(resp.Body)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.bootstraps++
	r.synthDeletes += uint64(info.SyntheticDeletes)
	r.synthPuts += uint64(info.SyntheticPuts)
	r.lastContact = time.Now()
	r.mu.Unlock()
	r.opts.Logf("replication: bootstrapped from snapshot (floor %d, %d docs, %d synthetic deletes, %d synthetic puts)",
		info.Seq, info.Docs, info.SyntheticDeletes, info.SyntheticPuts)
	return nil
}

// observe folds one frame's progress report into the staleness state.
func (r *Replica) observe(primarySeq uint64) {
	now := time.Now()
	r.mu.Lock()
	r.frames++
	r.lastContact = now
	if primarySeq > r.primarySeq {
		r.primarySeq = primarySeq
	}
	if r.db.LastSeq() >= r.primarySeq {
		r.freshAsOf = now
	}
	r.mu.Unlock()
}

func (r *Replica) get(ctx context.Context, path string) (*http.Response, error) {
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	path += sep + "shard=" + strconv.Itoa(r.opts.Shard)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opts.Primary+path, nil)
	if err != nil {
		return nil, err
	}
	if r.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+r.opts.Token)
	}
	return r.opts.Client.Do(req)
}

func (r *Replica) setState(st State) {
	r.mu.Lock()
	if !r.stopped && r.state != StatePromoted {
		r.state = st
	}
	r.mu.Unlock()
}

func (r *Replica) isStopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
}

// DropConnection kills the in-flight primary connection; the loop
// reconnects with backoff. Exposed for chaos testing and operators
// forcing a re-dial.
func (r *Replica) DropConnection() {
	r.mu.Lock()
	cancel := r.cancel
	r.cancel = nil
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Stop ends replication (idempotent): the in-flight connection is
// cancelled, the current batch finishes applying, and the loop exits.
// The store stays read-only — use Promote to make it writable.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.stopped = true
	cancel := r.cancel
	close(r.stop)
	if !r.started {
		// The loop never ran, so nothing else will close done.
		close(r.done)
	}
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	<-r.done
}

// Promote ends replication and makes the local store writable. The
// replica's own commit pipeline keeps serving its subscribers (InvaliDB,
// SSE feeds, chained replicas): new writes continue the sequence right
// after the last replicated one, so downstream consumers simply re-point
// at the promoted node with no gap and no re-subscription. Any batch in
// flight is fully applied before writes are accepted — promotion never
// tears a batch.
//
// Promote is idempotent; it reports whether this call performed the
// transition (false when the replica was already promoted), so callers
// retrying a partially applied multi-shard promote can tell a fresh flip
// from a re-delivery.
func (r *Replica) Promote() bool {
	r.Stop()
	r.db.SetReadOnly(false)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == StatePromoted {
		return false
	}
	r.state = StatePromoted
	return true
}

// Status is a point-in-time view of one shard's replica loop; a replica
// node's /v1/replication/status (CLI repl-status) serves one per shard.
type Status struct {
	State   State  `json:"state"`
	Primary string `json:"primary"`
	// Shard is the primary shard this replica follows.
	Shard int `json:"shard"`
	// LastSeq is the newest sequence applied locally; PrimaryLastSeq the
	// newest the primary has reported; LagSeq their difference.
	LastSeq        uint64 `json:"lastSeq"`
	PrimaryLastSeq uint64 `json:"primaryLastSeq"`
	LagSeq         uint64 `json:"lagSeq"`
	// StalenessMs bounds how stale reads are: the time since the replica
	// last provably held everything the primary had acknowledged (applied
	// sequence caught up to the primary's reported LastSeq). -1 until
	// first reaching that point.
	StalenessMs float64 `json:"stalenessMs"`
	// LastContactMs is the time since any frame or transfer from the
	// primary. -1 before first contact.
	LastContactMs float64 `json:"lastContactMs"`
	ReadOnly      bool    `json:"readOnly"`

	Bootstraps      uint64 `json:"bootstraps"`
	SegmentCatchups uint64 `json:"segmentCatchups"`
	Reconnects      uint64 `json:"reconnects"`
	Frames          uint64 `json:"frames"`
	RecordsApplied  uint64 `json:"recordsApplied"`
	// SyntheticDeletes/SyntheticPuts count the synthetic events
	// re-bootstrap imports published for documents deleted (resp. created
	// or re-versioned) inside collapsed snapshot ranges — the signal that
	// local subscribers (InvaliDB, SSE) were actively converged instead
	// of left holding stale entries.
	SyntheticDeletes uint64 `json:"syntheticDeletes"`
	SyntheticPuts    uint64 `json:"syntheticPuts"`
}

// Status reports the replica's current state and staleness bound.
func (r *Replica) Status() Status {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		State:            r.state,
		Primary:          r.opts.Primary,
		Shard:            r.opts.Shard,
		LastSeq:          r.db.LastSeq(),
		PrimaryLastSeq:   r.primarySeq,
		StalenessMs:      -1,
		LastContactMs:    -1,
		ReadOnly:         r.db.IsReadOnly(),
		Bootstraps:       r.bootstraps,
		SegmentCatchups:  r.segCatchups,
		Reconnects:       r.reconnects,
		Frames:           r.frames,
		RecordsApplied:   r.applied,
		SyntheticDeletes: r.synthDeletes,
		SyntheticPuts:    r.synthPuts,
	}
	if st.PrimaryLastSeq > st.LastSeq {
		st.LagSeq = st.PrimaryLastSeq - st.LastSeq
	}
	if !r.freshAsOf.IsZero() {
		st.StalenessMs = float64(now.Sub(r.freshAsOf)) / float64(time.Millisecond)
	}
	if !r.lastContact.IsZero() {
		st.LastContactMs = float64(now.Sub(r.lastContact)) / float64(time.Millisecond)
	}
	return st
}

// drain discards a response body so the connection can be reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

func httpStatus(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	if len(body) > 0 {
		return fmt.Sprintf("%s: %s", resp.Status, body)
	}
	return resp.Status
}
