package wal

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FsyncPolicy controls when the committer calls fsync.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs once per commit batch — every acknowledged write
	// is on stable storage. Group commit amortizes the cost: with many
	// concurrent writers the fsyncs-per-write ratio drops well below one.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval acknowledges once the record is enqueued (in order)
	// for the committer and fsyncs at most once per interval (plus on
	// rotation and close). A crash loses at most the last interval of
	// acknowledged writes; write errors wedge the log and fail all
	// subsequent appends.
	FsyncInterval
	// FsyncNever acknowledges once the record is enqueued and leaves
	// flushing to the OS page cache (fsync still runs on rotation and
	// clean close).
	FsyncNever
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the flag/JSON spelling produced by String.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures a Log. The zero value is usable: fsync=always,
// 8 MiB segments.
type Options struct {
	// Fsync selects the durability/latency trade-off (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the maximum time between fsyncs under
	// FsyncInterval (default 25ms).
	FsyncInterval time.Duration
	// SegmentBytes is the rotation threshold (default 8 MiB).
	SegmentBytes int64
	// QueueDepth bounds the append queue; full queues apply backpressure
	// to writers (default 1024).
	QueueDepth int
	// OnCommit, when set, is invoked on the committer goroutine after
	// every group that committed — the write and, under FsyncAlways, the
	// fsync succeeded — with the payloads attached via Prepare, in queue
	// order, which is the order Submit was called in. A failed group is
	// not reported: its waiters get the error and nothing else hears of
	// it. The hook runs before the group's waiters are woken, so a
	// successful Wait implies the hook already observed the record. The
	// store's ordered change-stream fan-out hangs off this hook. The hook
	// must not call back into the Log.
	OnCommit func(payloads []any)
}

func (o *Options) withDefaults() Options {
	out := Options{Fsync: FsyncAlways, FsyncInterval: 25 * time.Millisecond, SegmentBytes: 8 << 20, QueueDepth: 1024}
	if o == nil {
		return out
	}
	out.Fsync = o.Fsync
	if o.FsyncInterval > 0 {
		out.FsyncInterval = o.FsyncInterval
	}
	if o.SegmentBytes > 0 {
		out.SegmentBytes = o.SegmentBytes
	}
	if o.QueueDepth > 0 {
		out.QueueDepth = o.QueueDepth
	}
	out.OnCommit = o.OnCommit
	return out
}

// batchBuckets are the upper bounds of the commit-batch-size histogram
// (records per write+fsync); the last bucket is open-ended.
var batchBuckets = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// BatchBucket is one histogram bucket of commit batch sizes.
type BatchBucket struct {
	// Le is the bucket's inclusive upper bound (0 = overflow bucket).
	Le    int    `json:"le"`
	Count uint64 `json:"count"`
}

// Stats is a point-in-time snapshot of log activity.
type Stats struct {
	Dir          string        `json:"dir"`
	Fsync        string        `json:"fsync"`
	Segments     int           `json:"segments"`
	SegmentBytes int64         `json:"segmentBytes"` // total on-disk log size
	Appends      uint64        `json:"appends"`      // records committed
	Batches      uint64        `json:"batches"`      // write calls issued
	Fsyncs       uint64        `json:"fsyncs"`
	MeanBatch    float64       `json:"meanBatch"` // appends per write call
	BatchSizes   []BatchBucket `json:"batchSizes"`
}

// Log is a segmented write-ahead log. Appends from any number of
// goroutines funnel into a single committer goroutine that group-commits
// them; all other methods are safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	// closeMu serializes Enqueue against Close so no append can slip into
	// the queue after the committer was told to exit.
	closeMu sync.RWMutex
	closed  bool
	queue   chan *request
	done    chan struct{}
	// failed latches the first write/fsync error so fire-and-forget
	// appends (FsyncInterval/FsyncNever ack before the write) surface it
	// on the next call.
	failed atomic.Pointer[error]
	// diskSize tracks the total on-disk log size so hot-path callers
	// (the auto-snapshot threshold check runs once per commit batch) can
	// read it without taking statsMu or summing the segment map.
	diskSize atomic.Int64

	// Committer-owned state (no locking needed).
	f       *os.File
	segNum  int
	segSize int64
	dirty   bool  // unsynced bytes in f
	wedged  error // sticky write/fsync failure; fails all later appends
	wbuf    []byte
	pbuf    []any // scratch payload batch for the OnCommit hook

	// Shared stats, guarded by statsMu.
	statsMu    sync.Mutex
	segs       map[int]int64 // segment number -> size
	appends    uint64
	batches    uint64
	fsyncs     uint64
	batchSizes []uint64 // len(batchBuckets)+1, last = overflow
}

type ctl int

const (
	ctlNone ctl = iota
	ctlSync
	ctlRotate
	ctlClose
)

type request struct {
	// frames holds the request's records, pre-encoded by Entry.Add in the
	// writer's goroutine so encoding parallelizes across writers instead
	// of serializing in the committer. Each frame lacks its sequence
	// number; marks gives each one's end in frames and the checksum of
	// its payload so far, and the committer closes the frames as it
	// copies them into its write buffer, frame i at seq+i.
	frames []byte
	marks  []frameMark
	one    [1]frameMark // marks' storage for a one-record request
	seq    uint64
	// payload is an opaque value handed to Options.OnCommit once the
	// request's group commits (nil payloads are not reported).
	payload any
	// w is the handle Submit returns; under FsyncAlways its channel
	// (buffered, 1) receives the commit outcome.
	w     Waiter
	ctl   ctl
	reply chan ctlReply
}

// frameMark locates one open frame in request.frames.
type frameMark struct {
	end int
	crc uint32
}

type ctlReply struct {
	sealed []string
	err    error
}

// Waiter is a pending append's handle; Wait blocks until the record's
// batch has committed (per the fsync policy) and returns its outcome.
// A resolved Waiter (fire-and-forget policies, early errors) carries the
// outcome directly and never allocates a channel.
type Waiter struct {
	ch  chan error
	err error
}

// Wait blocks until the append is committed.
func (w *Waiter) Wait() error {
	if w.ch == nil {
		return w.err
	}
	return <-w.ch
}

func resolvedWaiter(err error) *Waiter { return &Waiter{err: err} }

func segmentName(n int) string { return fmt.Sprintf("wal-%08d.seg", n) }

// listSegments returns the segment numbers in dir, sorted ascending.
func listSegments(dir string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var nums []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"))
		if err != nil {
			continue
		}
		nums = append(nums, n)
	}
	sort.Ints(nums)
	return nums, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open opens (or creates) the log under dir, truncates a torn tail left
// by a crash in the last segment, and starts the committer. Callers that
// need the log's contents must Scan before appending.
func Open(dir string, opts *Options) (*Log, error) {
	o := opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	nums, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	l := &Log{
		dir:        dir,
		opts:       o,
		queue:      make(chan *request, o.QueueDepth),
		done:       make(chan struct{}),
		segs:       map[int]int64{},
		batchSizes: make([]uint64, len(batchBuckets)+1),
	}
	for _, n := range nums[:max(0, len(nums)-1)] {
		fi, err := os.Stat(filepath.Join(dir, segmentName(n)))
		if err != nil {
			return nil, err
		}
		l.segs[n] = fi.Size()
	}
	if len(nums) == 0 {
		l.segNum = 1
		if err := l.createSegment(); err != nil {
			return nil, err
		}
	} else {
		// Reopen the last segment for append, dropping any torn tail so
		// new records follow the last fully-valid frame.
		l.segNum = nums[len(nums)-1]
		path := filepath.Join(dir, segmentName(l.segNum))
		valid, _, err := scanSegment(path, nil)
		if err != nil {
			return nil, err
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
		if _, err := f.Seek(valid, 0); err != nil {
			f.Close()
			return nil, err
		}
		l.f = f
		l.segSize = valid
		l.segs[l.segNum] = valid
	}
	for _, sz := range l.segs {
		l.diskSize.Add(sz)
	}
	go l.run()
	return l, nil
}

// SizeBytes returns the log's total on-disk size (all segments). Cheap:
// a single atomic load, safe on any hot path.
func (l *Log) SizeBytes() int64 { return l.diskSize.Load() }

func (l *Log) createSegment() error {
	path := filepath.Join(l.dir, segmentName(l.segNum))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segSize = 0
	l.statsMu.Lock()
	l.segs[l.segNum] = 0
	l.statsMu.Unlock()
	return nil
}

// maxEntryPresize caps the buffer Begin sizes: a large unit grows its
// buffer by appending instead of reserving hundreds of megabytes up
// front.
const maxEntryPresize = 1 << 20

// Entry is one or more records encoded for the log whose sequence numbers
// are still open; see Begin, Add and Submit.
type Entry struct{ req *request }

// Begin starts an entry that carries payload: once the entry's group
// commits, Options.OnCommit receives the payload before the entry's
// waiter resolves. Add encodes its records; Submit queues them as one
// request, so they are written by one write call, covered by one fsync
// and acknowledged by one Wait. size is how many bytes the caller
// expects its records to take (see PutFrameSize); it sizes the entry's
// buffer, up to maxEntryPresize, and a record beyond it grows the buffer.
func (l *Log) Begin(payload any, size int) Entry {
	req := &request{frames: make([]byte, 0, min(size, maxEntryPresize)), payload: payload}
	req.marks = req.one[:0]
	if l.opts.Fsync == FsyncAlways {
		req.w.ch = make(chan error, 1)
	}
	return Entry{req}
}

// Add encodes rec — all of it but rec.Seq, which Submit supplies — onto
// the entry, in the caller's goroutine. Everything whose cost grows with
// the record happens here. A record that fails to encode leaves the
// entry as it was.
func (e Entry) Add(rec *Record) error {
	req := e.req
	start := len(req.frames)
	frames, err := openFrame(req.frames, rec)
	if err != nil {
		return err
	}
	req.frames = frames
	req.marks = append(req.marks, frameMark{end: len(frames), crc: crc32.Checksum(frames[start+frameHeaderSize:], castagnoli)})
	return nil
}

// Prepare is Begin plus Add for a one-record entry.
func (l *Log) Prepare(rec *Record, payload any) (Entry, error) {
	size := 0
	if rec.Kind == KindPut && rec.Doc != nil {
		size = PutFrameSize(rec.Table, rec.Doc.EncodedLen())
	}
	e := l.Begin(payload, size)
	if err := e.Add(rec); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// Submit queues e for group commit with its records at seq, seq+1, …
// (a seq of 0 leaves them unsequenced, as DDL records are). The queue is
// FIFO and the committer writes it in order, so records sit in the log —
// and reach OnCommit — in the order of the Submit calls: a caller that
// assigns seq and calls Submit under one lock gets a log whose file order
// is Seq order. The committer closes the frames; Submit itself is O(1).
// An entry is submitted once.
//
// Under FsyncAlways the Waiter resolves after the entry's batch is
// fsynced; under FsyncInterval/FsyncNever it resolves as soon as the
// entry is in the committer's ordered queue (those policies already
// accept losing an acknowledged tail on crash), with any later write
// failure latched and returned by subsequent calls. A Waiter that
// resolves with an error means OnCommit never saw the payload.
func (l *Log) Submit(e Entry, seq uint64) *Waiter {
	if errp := l.failed.Load(); errp != nil {
		return resolvedWaiter(*errp)
	}
	req := e.req
	req.seq = seq
	l.closeMu.RLock()
	if l.closed {
		l.closeMu.RUnlock()
		return resolvedWaiter(ErrClosed)
	}
	l.queue <- req
	l.closeMu.RUnlock()
	return &req.w
}

// Enqueue is Prepare plus Submit at rec.Seq, for records whose position
// nobody else depends on (DDL, tests).
func (l *Log) Enqueue(rec Record) *Waiter {
	e, err := l.Prepare(&rec, nil)
	if err != nil {
		return resolvedWaiter(err)
	}
	return l.Submit(e, rec.Seq)
}

// Append submits one record and blocks until it commits.
func (l *Log) Append(rec Record) error { return l.Enqueue(rec).Wait() }

// Sync forces an fsync of the active segment.
func (l *Log) Sync() error {
	reply, err := l.control(ctlSync)
	if err != nil {
		return err
	}
	return reply.err
}

// Rotate seals the active segment (fsync + close) and starts a new one.
// It returns the paths of all sealed segments, which a caller that has
// just snapshotted may pass to Remove.
func (l *Log) Rotate() ([]string, error) {
	reply, err := l.control(ctlRotate)
	if err != nil {
		return nil, err
	}
	return reply.sealed, reply.err
}

func (l *Log) control(c ctl) (ctlReply, error) {
	req := &request{ctl: c, reply: make(chan ctlReply, 1)}
	l.closeMu.RLock()
	if l.closed {
		l.closeMu.RUnlock()
		return ctlReply{}, ErrClosed
	}
	l.queue <- req
	l.closeMu.RUnlock()
	return <-req.reply, nil
}

// Remove deletes sealed segment files, typically after a snapshot has
// made them redundant. Paths not belonging to this log's directory are
// rejected; the active segment can never be in the sealed list.
func (l *Log) Remove(sealed []string) error {
	for _, p := range sealed {
		if filepath.Dir(p) != filepath.Clean(l.dir) {
			return fmt.Errorf("wal: refusing to remove %s: outside log dir", p)
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "wal-"), ".seg"))
		if err != nil {
			return fmt.Errorf("wal: refusing to remove %s: not a segment", p)
		}
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
		l.statsMu.Lock()
		l.diskSize.Add(-l.segs[n])
		delete(l.segs, n)
		l.statsMu.Unlock()
	}
	return syncDir(l.dir)
}

// Close flushes pending appends, fsyncs and closes the active segment,
// and stops the committer. Appends after Close fail with ErrClosed.
func (l *Log) Close() error {
	l.closeMu.Lock()
	if l.closed {
		l.closeMu.Unlock()
		return nil
	}
	l.closed = true
	req := &request{ctl: ctlClose, reply: make(chan ctlReply, 1)}
	l.queue <- req
	l.closeMu.Unlock()
	reply := <-req.reply
	<-l.done
	return reply.err
}

// Stats reports activity counters and the batch-size histogram.
func (l *Log) Stats() Stats {
	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	st := Stats{
		Dir:      l.dir,
		Fsync:    l.opts.Fsync.String(),
		Segments: len(l.segs),
		Appends:  l.appends,
		Batches:  l.batches,
		Fsyncs:   l.fsyncs,
	}
	for _, sz := range l.segs {
		st.SegmentBytes += sz
	}
	if l.batches > 0 {
		st.MeanBatch = float64(l.appends) / float64(l.batches)
	}
	for i, le := range batchBuckets {
		if l.batchSizes[i] > 0 {
			st.BatchSizes = append(st.BatchSizes, BatchBucket{Le: le, Count: l.batchSizes[i]})
		}
	}
	if over := l.batchSizes[len(batchBuckets)]; over > 0 {
		st.BatchSizes = append(st.BatchSizes, BatchBucket{Le: 0, Count: over})
	}
	return st
}

// run is the committer: it drains the queue, writes each drained batch
// with a single write call, fsyncs per policy, and wakes the waiters.
func (l *Log) run() {
	defer close(l.done)
	var tick <-chan time.Time
	if l.opts.Fsync == FsyncInterval {
		t := time.NewTicker(l.opts.FsyncInterval)
		defer t.Stop()
		tick = t.C
	}
	batch := make([]*request, 0, 256)
	for {
		var first *request
		if tick != nil {
			select {
			case first = <-l.queue:
			case <-tick:
				if l.dirty && l.wedged == nil {
					if err := l.fsync(); err != nil {
						l.wedged = err
						l.failed.Store(&err)
					}
				}
				continue
			}
		} else {
			first = <-l.queue
		}
		batch = append(batch[:0], first)
	drain:
		for len(batch) < cap(batch) {
			select {
			case r := <-l.queue:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		if l.processBatch(batch) {
			return
		}
	}
}

// processBatch commits the records of one drained batch as a group,
// executing any interleaved control requests in order. It reports
// whether the committer should exit.
func (l *Log) processBatch(batch []*request) bool {
	group := make([]*request, 0, len(batch))
	flush := func() {
		if len(group) > 0 {
			l.commitGroup(group)
			group = group[:0]
		}
	}
	for _, req := range batch {
		if req.ctl == ctlNone {
			group = append(group, req)
			continue
		}
		flush()
		switch req.ctl {
		case ctlSync:
			req.reply <- ctlReply{err: l.fsync()}
		case ctlRotate:
			sealed, err := l.rotate()
			req.reply <- ctlReply{sealed: sealed, err: err}
		case ctlClose:
			err := l.fsync()
			if cerr := l.f.Close(); err == nil {
				err = cerr
			}
			req.reply <- ctlReply{err: err}
			return true
		}
	}
	flush()
	return false
}

// commitGroup writes one group of records with a single write call and
// applies the fsync policy, then reports the shared outcome to every
// waiter.
func (l *Log) commitGroup(group []*request) {
	err := l.wedged
	records := 0
	for _, req := range group {
		records += len(req.marks)
	}
	if err == nil {
		l.wbuf = l.wbuf[:0]
		for _, req := range group {
			l.wbuf = req.appendClosed(l.wbuf)
		}
		if l.segSize > 0 && l.segSize+int64(len(l.wbuf)) > l.opts.SegmentBytes {
			_, err = l.rotate()
		}
		if err == nil {
			_, err = l.f.Write(l.wbuf)
		}
		if err == nil {
			l.segSize += int64(len(l.wbuf))
			l.dirty = true
			l.diskSize.Add(int64(len(l.wbuf)))
			l.statsMu.Lock()
			l.segs[l.segNum] = l.segSize
			l.statsMu.Unlock()
			if l.opts.Fsync == FsyncAlways {
				err = l.fsync()
			}
		}
		if err != nil {
			// Half-written batch: fail everything from here on, including
			// fire-and-forget appends that were already acknowledged.
			l.wedged = err
			l.failed.Store(&err)
		}
	}
	l.statsMu.Lock()
	l.batches++
	if err == nil {
		l.appends += uint64(records)
	}
	// SearchInts lands on the first bucket whose bound covers the batch;
	// len(batchBuckets) is the open-ended overflow slot.
	l.batchSizes[sort.SearchInts(batchBuckets, records)]++
	l.statsMu.Unlock()
	if l.opts.OnCommit != nil && err == nil {
		l.pbuf = l.pbuf[:0]
		for _, req := range group {
			if req.payload != nil {
				l.pbuf = append(l.pbuf, req.payload)
			}
		}
		if len(l.pbuf) > 0 {
			// Before waking the waiters: an acknowledged write is already
			// past the hook (the change stream never trails a returned
			// fsync=always ack).
			l.opts.OnCommit(l.pbuf)
		}
	}
	for _, req := range group {
		if req.w.ch != nil {
			req.w.ch <- err
		}
	}
}

// appendClosed appends the request's frames to buf, closing frame i at
// seq+i (unsequenced when seq is 0).
func (req *request) appendClosed(buf []byte) []byte {
	from := 0
	for i, m := range req.marks {
		start := len(buf)
		buf = append(buf, req.frames[from:m.end]...)
		seq := req.seq
		if seq != 0 {
			seq += uint64(i)
		}
		buf = closeFrame(buf, start, m.crc, seq)
		from = m.end
	}
	return buf
}

func (l *Log) fsync() error {
	err := l.f.Sync()
	if err == nil {
		l.dirty = false
		l.statsMu.Lock()
		l.fsyncs++
		l.statsMu.Unlock()
	}
	return err
}

// rotate seals the active segment and opens the next one, returning the
// paths of all sealed segments.
func (l *Log) rotate() ([]string, error) {
	if err := l.fsync(); err != nil {
		return nil, err
	}
	if err := l.f.Close(); err != nil {
		return nil, err
	}
	l.segNum++
	if err := l.createSegment(); err != nil {
		return nil, err
	}
	l.statsMu.Lock()
	var sealed []string
	for n := range l.segs {
		if n != l.segNum {
			sealed = append(sealed, filepath.Join(l.dir, segmentName(n)))
		}
	}
	l.statsMu.Unlock()
	sort.Strings(sealed)
	return sealed, nil
}

// ScanResult summarizes one recovery scan of the log directory.
type ScanResult struct {
	Segments int
	Bytes    int64
	Records  int
	LastSeq  uint64 // highest Seq seen among valid records
	TornTail bool   // last segment ended in an incomplete/corrupt frame
}

// Scan reads every record in dir's segments in file order, invoking fn
// for each. A torn frame at the tail of the last segment ends the scan
// without error (recovery truncates it on Open); a bad frame anywhere
// else is corruption and fails the scan. A missing dir scans as empty.
func Scan(dir string, fn func(*Record) error) (ScanResult, error) {
	var res ScanResult
	nums, err := listSegments(dir)
	if os.IsNotExist(err) {
		return res, nil
	}
	if err != nil {
		return res, err
	}
	res.Segments = len(nums)
	for i, n := range nums {
		path := filepath.Join(dir, segmentName(n))
		last := i == len(nums)-1
		valid, torn, err := scanSegment(path, func(rec *Record) error {
			res.Records++
			if rec.Seq > res.LastSeq {
				res.LastSeq = rec.Seq
			}
			return fn(rec)
		})
		if err != nil {
			return res, err
		}
		res.Bytes += valid
		if torn {
			if !last {
				return res, fmt.Errorf("wal: corrupt frame mid-log in %s", path)
			}
			res.TornTail = true
		}
	}
	return res, nil
}

// scanSegment reads one segment, returning the length of its valid
// prefix and whether a torn frame cut the scan short. fn may be nil.
func scanSegment(path string, fn func(*Record) error) (validLen int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	return scanFrames(bufio.NewReaderSize(f, 1<<16), fn)
}

// scanFrames decodes records from r up to a clean end of stream or the
// first torn frame, whichever comes first.
func scanFrames(r io.Reader, fn func(*Record) error) (validLen int64, torn bool, err error) {
	fr := &frameReader{r: r}
	var rec Record
	for {
		switch err := fr.next(&rec); err {
		case nil:
			if fn != nil {
				if err := fn(&rec); err != nil {
					return fr.validLen, false, err
				}
			}
		case ErrTorn:
			return fr.validLen, true, nil
		case io.EOF:
			return fr.validLen, false, nil
		default:
			return fr.validLen, false, err
		}
	}
}
