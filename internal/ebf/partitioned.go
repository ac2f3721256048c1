package ebf

import (
	"sort"
	"strings"
	"sync"
	"time"
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
	mu    sync.Mutex
	opts  Options
	parts map[string]*EBF
}

// NewPartitioned creates an empty per-table partitioned EBF. All partitions
// share the same (m, k) so their bit vectors can be OR-ed.
func NewPartitioned(opts *Options) *Partitioned {
	return &Partitioned{opts: opts.withDefaults(), parts: map[string]*EBF{}}
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
	p.mu.Lock()
	defer p.mu.Unlock()
	part, ok := p.parts[table]
	if !ok {
		o := p.opts
		part = New(&o)
		p.parts[table] = part
	}
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

// Contains checks a key against its table partition only — clients that
// load per-table EBFs get a lower effective false positive rate this way
// ("clients can also exploit the table-specific EBFs to decrease the total
// false positive rate at the expense of loading more individual EBFs").
func (p *Partitioned) Contains(key string) bool {
	return p.partition(key).Contains(key)
}

// Snapshot returns the aggregated flat filter: the bitwise OR across all
// table partitions.
func (p *Partitioned) Snapshot() Snapshot {
	p.mu.Lock()
	parts := make([]*EBF, 0, len(p.parts))
	for _, e := range p.parts {
		parts = append(parts, e)
	}
	p.mu.Unlock()

	if len(parts) == 0 {
		o := p.opts
		empty := New(&o)
		return empty.Snapshot()
	}
	agg := parts[0].Snapshot()
	for _, e := range parts[1:] {
		snap := e.Snapshot()
		// Same (m,k) by construction, so Union cannot fail.
		_ = agg.Filter.Union(snap.Filter)
		agg.Entries += snap.Entries
		if snap.GeneratedAt.Before(agg.GeneratedAt) {
			// The aggregate is only as fresh as its oldest partition.
			agg.GeneratedAt = snap.GeneratedAt
		}
	}
	return agg
}

// SnapshotTable returns the flat filter of one table's partition.
func (p *Partitioned) SnapshotTable(table string) Snapshot {
	p.mu.Lock()
	part, ok := p.parts[table]
	p.mu.Unlock()
	if !ok {
		o := p.opts
		return New(&o).Snapshot()
	}
	return part.Snapshot()
}

// Tables lists partitions in sorted order.
func (p *Partitioned) Tables() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.parts))
	for t := range p.parts {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Stats sums activity counters across partitions.
func (p *Partitioned) Stats() Stats {
	p.mu.Lock()
	parts := make([]*EBF, 0, len(p.parts))
	for _, e := range p.parts {
		parts = append(parts, e)
	}
	p.mu.Unlock()
	var total Stats
	for _, e := range parts {
		s := e.Stats()
		total.Reads += s.Reads
		total.Invalidations += s.Invalidations
		total.IgnoredWrites += s.IgnoredWrites
		total.Expirations += s.Expirations
		total.Snapshots += s.Snapshots
		total.SweptEntries += s.SweptEntries
		total.CurrentEntries += s.CurrentEntries
		total.TrackedKeys += s.TrackedKeys
	}
	return total
}
