package ebf

import (
	"encoding/binary"
	"errors"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quaestor/internal/bloom"
)

// Partitioned shards the EBF per table for write scalability (Section 3.3
// "Scalability": "each table has its own EBF instance. ... At read time,
// the aggregated EBF is constructed by a union over the EBF partitions
// through a bitwise OR-operation over the Bloom filter bit vectors.").
//
// Keys are routed by their table prefix: record keys look like "table/id"
// and query keys like "q:table/...", as produced by store.ChangeEvent.Key
// and query.Query.Key.
type Partitioned struct {
	opts Options
	// epoch names this instance's flag log and pos numbers its flaggings,
	// one sequence across all partitions (see "Renewing a snapshot").
	epoch     uint64
	pos       atomic.Uint64
	uncovered atomic.Uint64 // positioned polls answered without Recent
	// parts is copy-on-write: a partition is created by the first report
	// for its table (in practice at start-up), so the request path finds
	// its partition without a filter-wide lock. mu serializes creators.
	mu    sync.Mutex
	parts atomic.Pointer[map[string]*EBF]
}

// NewPartitioned creates an empty per-table partitioned EBF. All partitions
// share the same (m, k) so their bit vectors can be OR-ed.
func NewPartitioned(opts *Options) *Partitioned {
	// The epoch only has to differ from that of any instance a client may
	// have polled before, and never be 0; 53 bits keep it exact in every
	// JSON reader.
	p := &Partitioned{opts: opts.withDefaults(), epoch: 1 + rand.Uint64N(1<<53-1)}
	p.parts.Store(&map[string]*EBF{})
	return p
}

// TableOf extracts the routing table from an EBF key. Record keys are
// "table/id"; query keys are "q:table/predicate...".
func TableOf(key string) string {
	k := strings.TrimPrefix(key, "q:")
	if i := strings.IndexByte(k, '/'); i >= 0 {
		return k[:i]
	}
	return k
}

func (p *Partitioned) partition(key string) *EBF {
	return p.tablePartition(TableOf(key))
}

func (p *Partitioned) tablePartition(table string) *EBF {
	if part := (*p.parts.Load())[table]; part != nil {
		return part
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := *p.parts.Load()
	if part := cur[table]; part != nil {
		return part
	}
	next := make(map[string]*EBF, len(cur)+1)
	maps.Copy(next, cur)
	part := newEBF(p.opts, &p.pos)
	next[table] = part
	p.parts.Store(&next)
	return part
}

// ReportRead records a cacheable read on the key's table partition.
func (p *Partitioned) ReportRead(key string, ttl time.Duration) {
	p.ReportReads(ttl, key)
}

// ReportReads records one response's keys on their table partition in one
// batch. The keys of a response share a table, so this is one partition
// lookup; keys of several tables are split into per-table runs.
func (p *Partitioned) ReportReads(ttl time.Duration, keys ...string) {
	for len(keys) > 0 {
		table := TableOf(keys[0])
		n := 1
		for n < len(keys) && TableOf(keys[n]) == table {
			n++
		}
		p.tablePartition(table).ReportReads(ttl, keys[:n]...)
		keys = keys[n:]
	}
}

// ReportWrite flags an invalidated key on its table partition.
func (p *Partitioned) ReportWrite(key string) bool {
	return p.partition(key).ReportWrite(key)
}

// ReportWrites flags the written keys of one unit on their table
// partitions, one clock reading and one lock acquisition per run of keys
// of one table, and returns the positions in keys of those it flagged
// (nil when none was): each needs a purge, as for ReportWrite.
func (p *Partitioned) ReportWrites(keys []string) (flagged []int) {
	for base := 0; base < len(keys); {
		table := TableOf(keys[base])
		n := base + 1
		for n < len(keys) && TableOf(keys[n]) == table {
			n++
		}
		flagged = p.tablePartition(table).ReportWrites(keys[base:n], base, flagged)
		base = n
	}
	return flagged
}

// Contains checks a key against its table partition only — clients that
// load per-table EBFs get a lower effective false positive rate this way
// ("clients can also exploit the table-specific EBFs to decrease the total
// false positive rate at the expense of loading more individual EBFs").
func (p *Partitioned) Contains(key string) bool {
	return p.partition(key).Contains(key)
}

// each calls fn on the partitions a snapshot for table covers: every
// partition for "" (the aggregate), else that table's alone — none if
// nothing was ever reported for it.
func (p *Partitioned) each(table string, fn func(*EBF)) {
	parts := *p.parts.Load()
	if table == "" {
		for _, part := range parts {
			fn(part)
		}
	} else if part := parts[table]; part != nil {
		fn(part)
	}
}

// Image is one pass over the partitions in the form /v1/ebf serves it.
type Image struct {
	// Wire is the flat filter clients load, in bloom.Filter wire form (what
	// Snapshot().Filter.Marshal() returns), appended to dst.
	Wire        []byte
	GeneratedAt time.Time
	Entries     int // stale keys in the image
	// At.Cursor is read before the first partition: every flagging up to
	// it is in Wire.
	At Position
	// Covered says the flag logs reached back to Since; Recent is then the
	// recent argument plus 8 little-endian bytes of Fingerprint per
	// flagging after it.
	Covered bool
	Since   uint64
	Recent  []byte
}

// AppendSnapshot appends to dst the flat filter of table: for "" the
// aggregate — the bitwise OR across all table partitions — else that
// table's partition alone. Each partition is OR-ed into dst under its own
// lock, so the pass clones nothing and, given capacity in dst and recent,
// allocates nothing. GeneratedAt is read once, before the first partition:
// the image is at least that fresh.
//
// since is the position of the image the poller holds. When it is of this
// instance, not ahead of it, every covered partition's flag log still
// reaches back to it and the list fits FlagLogSize fingerprints, the image
// is Covered and lists what was flagged after it — under the same locks,
// so nothing flagged between the two images is missing from both.
func (p *Partitioned) AppendSnapshot(dst, recent []byte, table string, since Position) Image {
	img := Image{
		GeneratedAt: p.opts.Clock(),
		At:          Position{Epoch: p.epoch, Cursor: p.pos.Load()},
		Since:       since.Cursor,
	}
	img.Covered = since.Epoch == p.epoch && since.Cursor <= img.At.Cursor
	start, limit := len(dst), len(recent)+8*FlagLogSize
	dst = bloom.AppendEmptyMarshaled(dst, p.opts.Bits, p.opts.Hashes)
	p.each(table, func(part *EBF) {
		img.Entries += part.snapshot(img.GeneratedAt, func(flat *bloom.Filter) {
			_ = flat.UnionMarshaled(dst[start:]) // same (m, k) by construction
			if img.Covered {
				recent, img.Covered = part.log.appendSince(recent, since.Cursor, limit)
			}
		})
	})
	if !img.Covered && since != (Position{}) {
		p.uncovered.Add(1)
	}
	img.Wire, img.Recent = dst, recent
	return img
}

// Snapshot parses an image (one appended to empty buffers) into the form
// in-process consumers and the SDK's ClientView take.
func (img Image) Snapshot() (Snapshot, error) {
	filter, err := bloom.Unmarshal(img.Wire)
	if err != nil {
		return Snapshot{}, err
	}
	if len(img.Recent)%8 != 0 {
		return Snapshot{}, errors.New("ebf: recent is not a list of 8-byte fingerprints")
	}
	snap := Snapshot{Filter: filter, GeneratedAt: img.GeneratedAt, Entries: img.Entries, At: img.At}
	if img.Covered {
		snap.Covered, snap.Since = true, img.Since
		snap.Recent = make([]uint64, len(img.Recent)/8)
		for i := range snap.Recent {
			snap.Recent[i] = binary.LittleEndian.Uint64(img.Recent[8*i:])
		}
	}
	return snap, nil
}

// Snapshot returns the aggregated flat filter: the bitwise OR across all
// table partitions.
func (p *Partitioned) Snapshot() Snapshot { return p.snapshotOf("") }

// SnapshotTable returns the flat filter of one table's partition.
func (p *Partitioned) SnapshotTable(table string) Snapshot { return p.snapshotOf(table) }

// snapshotOf is AppendSnapshot parsed back into a bloom.Filter, so the
// image in-process consumers see is the wire's by construction. It is
// taken from nowhere (the zero Position), hence never Covered: a ClientView
// renewed with it clears its whitelist as the paper has it.
func (p *Partitioned) snapshotOf(table string) Snapshot {
	snap, err := p.AppendSnapshot(nil, nil, table, Position{}).Snapshot()
	if err != nil {
		panic("ebf: AppendSnapshot produced an unparsable image: " + err.Error())
	}
	return snap
}

// Tables lists partitions in sorted order.
func (p *Partitioned) Tables() []string {
	return slices.Sorted(maps.Keys(*p.parts.Load()))
}

// Stats sums activity counters across partitions.
func (p *Partitioned) Stats() Stats {
	var total Stats
	for _, e := range *p.parts.Load() {
		s := e.Stats()
		total.Reads += s.Reads
		total.Invalidations += s.Invalidations
		total.IgnoredWrites += s.IgnoredWrites
		total.Expirations += s.Expirations
		total.Snapshots += s.Snapshots
		total.SweptEntries += s.SweptEntries
		total.CurrentEntries += s.CurrentEntries
		total.TrackedKeys += s.TrackedKeys
		total.FlagLogDropped += s.FlagLogDropped
	}
	total.UncoveredPolls = p.uncovered.Load()
	return total
}
