// Package workload implements the YCSB-style benchmark framework the paper
// evaluates with (Section 6.1): a discrete distribution over operation
// types (reads, queries, inserts, partial updates, deletes), Zipfian
// sampling of keys/queries/tables, and dataset generators matching the
// paper's setup (10 tables × 10,000 documents, 100 distinct queries per
// table initially returning ~10 documents on average).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"quaestor/internal/document"
	"quaestor/internal/query"
)

// OpType enumerates workload operations.
type OpType int

// Operation kinds drawn by the generator.
const (
	OpRead OpType = iota
	OpQuery
	OpInsert
	OpUpdate
	OpDelete
)

// String implements fmt.Stringer.
func (o OpType) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpQuery:
		return "query"
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("OpType(%d)", int(o))
	}
}

// Mix is a discrete operation distribution; weights need not sum to 1.
type Mix struct {
	Read, Query, Insert, Update, Delete float64
}

// ReadHeavy is the paper's headline workload: 99% reads+queries (equally
// weighted), 1% writes.
var ReadHeavy = Mix{Read: 0.495, Query: 0.495, Update: 0.01}

// total sums the weights.
func (m Mix) total() float64 { return m.Read + m.Query + m.Insert + m.Update + m.Delete }

// Sample draws one operation type using r.
func (m Mix) Sample(r *rand.Rand) OpType {
	t := m.total()
	if t <= 0 {
		return OpRead
	}
	u := r.Float64() * t
	switch {
	case u < m.Read:
		return OpRead
	case u < m.Read+m.Query:
		return OpQuery
	case u < m.Read+m.Query+m.Insert:
		return OpInsert
	case u < m.Read+m.Query+m.Insert+m.Update:
		return OpUpdate
	default:
		return OpDelete
	}
}

// Zipf samples ranks 0..n−1 with P(rank i) ∝ 1/(i+1)^s, the access skew
// model of Breslau et al. that the paper's workloads use. Unlike
// math/rand.Zipf this implementation supports any exponent s ≥ 0 (the
// paper uses both the YCSB default 0.99 and flatter distributions) and is
// deterministic given the source.
type Zipf struct {
	n   int
	s   float64
	cdf []float64 // cumulative probabilities
}

// NewZipf builds a sampler over n ranks with exponent s.
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		n = 1
	}
	z := &Zipf{n: n, s: s, cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// N returns the rank-space size.
func (z *Zipf) N() int { return z.n }

// Sample draws a rank in [0, n).
func (z *Zipf) Sample(r *rand.Rand) int {
	u := r.Float64()
	// Binary search the CDF.
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Dataset is a generated corpus: tables of documents plus the distinct
// query set posed against them.
type Dataset struct {
	Tables    []string
	Docs      map[string][]*document.Document // by table
	Queries   []*query.Query                  // all distinct queries
	ByTable   map[string][]*query.Query
	TagDomain int // number of distinct tag values per table
}

// DatasetConfig sizes a generated corpus.
type DatasetConfig struct {
	// Tables is the table count (paper: 10).
	Tables int
	// DocsPerTable is the documents per table (paper: 10,000).
	DocsPerTable int
	// QueriesPerTable is the distinct query count per table (paper: 100).
	QueriesPerTable int
	// MeanResultSize is the average documents per query result (paper: 10).
	MeanResultSize int
	// Seed makes generation deterministic.
	Seed int64
}

func (c *DatasetConfig) withDefaults() DatasetConfig {
	out := DatasetConfig{Tables: 10, DocsPerTable: 10000, QueriesPerTable: 100, MeanResultSize: 10, Seed: 1}
	if c == nil {
		return out
	}
	cp := *c
	if cp.Tables <= 0 {
		cp.Tables = out.Tables
	}
	if cp.DocsPerTable <= 0 {
		cp.DocsPerTable = out.DocsPerTable
	}
	if cp.QueriesPerTable <= 0 {
		cp.QueriesPerTable = out.QueriesPerTable
	}
	if cp.MeanResultSize <= 0 {
		cp.MeanResultSize = out.MeanResultSize
	}
	return cp
}

// TableName names the i-th table.
func TableName(i int) string { return fmt.Sprintf("table%02d", i) }

// DocID names the j-th document of a table.
func DocID(j int) string { return fmt.Sprintf("doc%06d", j) }

// GenerateDataset builds a corpus in which each query initially returns
// MeanResultSize documents on average: every document carries a "tag"
// drawn from a domain of DocsPerTable/MeanResultSize values, and each
// query selects one tag value — the paper's blog-post CONTAINS pattern.
func GenerateDataset(cfg *DatasetConfig) *Dataset {
	c := cfg.withDefaults()
	r := rand.New(rand.NewSource(c.Seed))
	tagDomain := c.DocsPerTable / c.MeanResultSize
	if tagDomain < 1 {
		tagDomain = 1
	}
	ds := &Dataset{
		Docs:      map[string][]*document.Document{},
		ByTable:   map[string][]*query.Query{},
		TagDomain: tagDomain,
	}
	for t := 0; t < c.Tables; t++ {
		table := TableName(t)
		ds.Tables = append(ds.Tables, table)
		docs := make([]*document.Document, 0, c.DocsPerTable)
		for j := 0; j < c.DocsPerTable; j++ {
			tag := fmt.Sprintf("tag%05d", r.Intn(tagDomain))
			extra := fmt.Sprintf("tag%05d", r.Intn(tagDomain))
			docs = append(docs, document.New(DocID(j), map[string]any{
				"tags":    []any{tag, extra},
				"title":   fmt.Sprintf("Post %d in %s", j, table),
				"body":    loremBody(r),
				"author":  fmt.Sprintf("user%04d", r.Intn(1000)),
				"rating":  int64(r.Intn(100)),
				"created": int64(j),
			}))
		}
		ds.Docs[table] = docs

		queries := make([]*query.Query, 0, c.QueriesPerTable)
		for qi := 0; qi < c.QueriesPerTable; qi++ {
			tag := fmt.Sprintf("tag%05d", qi%tagDomain)
			q := query.New(table, query.Contains("tags", tag))
			// Key memoizes on first use without synchronization; do it here,
			// because generators on several goroutines share these queries.
			q.Key()
			queries = append(queries, q)
		}
		ds.ByTable[table] = queries
		ds.Queries = append(ds.Queries, queries...)
	}
	return ds
}

var loremWords = []string{
	"lorem", "ipsum", "dolor", "sit", "amet", "consetetur", "sadipscing",
	"elitr", "sed", "diam", "nonumy", "eirmod", "tempor", "invidunt",
	"labore", "dolore", "magna", "aliquyam", "erat", "voluptua",
}

func loremBody(r *rand.Rand) string {
	n := 8 + r.Intn(8)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += loremWords[r.Intn(len(loremWords))]
	}
	return out
}

// Op is one generated operation.
type Op struct {
	Type  OpType
	Table string
	DocID string
	Query *query.Query
	// UpdateTag is the new tag value for update operations; flipping tags
	// drives add/remove membership changes in cached queries.
	UpdateTag string
}

// Generator draws operations against a dataset with Zipf-skewed key and
// query popularity, as in the paper's setup ("requests were generated by
// first sampling a request type and then sampling the key/query and table
// to use (using a Zipfian distribution)").
type Generator struct {
	ds        *Dataset
	mix       Mix
	rand      *rand.Rand
	tableZipf *Zipf
	docZipf   *Zipf
	queryZipf *Zipf
}

// NewGenerator creates a generator. zipfS is the Zipf exponent (the paper
// uses 0.99 for the document-count experiments and a flatter default
// otherwise); seed fixes the stream.
func NewGenerator(ds *Dataset, mix Mix, zipfS float64, seed int64) *Generator {
	firstTable := ds.Tables[0]
	return &Generator{
		ds:        ds,
		mix:       mix,
		rand:      rand.New(rand.NewSource(seed)),
		tableZipf: NewZipf(len(ds.Tables), zipfS),
		docZipf:   NewZipf(len(ds.Docs[firstTable]), zipfS),
		queryZipf: NewZipf(len(ds.ByTable[firstTable]), zipfS),
	}
}

// Next draws one operation.
func (g *Generator) Next() Op {
	typ := g.mix.Sample(g.rand)
	table := g.ds.Tables[g.tableZipf.Sample(g.rand)]
	switch typ {
	case OpQuery:
		queries := g.ds.ByTable[table]
		return Op{Type: OpQuery, Table: table, Query: queries[g.queryZipf.Sample(g.rand)%len(queries)]}
	case OpRead:
		docs := g.ds.Docs[table]
		return Op{Type: OpRead, Table: table, DocID: docs[g.docZipf.Sample(g.rand)%len(docs)].ID}
	case OpUpdate:
		docs := g.ds.Docs[table]
		return Op{
			Type:      OpUpdate,
			Table:     table,
			DocID:     docs[g.docZipf.Sample(g.rand)%len(docs)].ID,
			UpdateTag: fmt.Sprintf("tag%05d", g.rand.Intn(g.ds.TagDomain)),
		}
	case OpInsert:
		return Op{
			Type:      OpInsert,
			Table:     table,
			DocID:     fmt.Sprintf("new%09d", g.rand.Int63()),
			UpdateTag: fmt.Sprintf("tag%05d", g.rand.Intn(g.ds.TagDomain)),
		}
	default:
		docs := g.ds.Docs[table]
		return Op{Type: OpDelete, Table: table, DocID: docs[g.docZipf.Sample(g.rand)%len(docs)].ID}
	}
}
