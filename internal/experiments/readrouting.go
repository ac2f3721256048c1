// Read-routing grid: the replica chain as a read-scaling cache tier. A
// grid of (replica count × staleness bound) cells, each measuring read
// throughput against a live primary + N-replica topology with a
// background writer keeping the replication stream hot. Every node's
// handler sits behind a modeled capacity gate (slot semaphore + fixed
// service time), so serving reads from two replicas instead of one
// primary shows up as real throughput on a single benchmark machine —
// and the per-tier served counters show where every read landed.
package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"quaestor/internal/client"
	"quaestor/internal/document"
	"quaestor/internal/metrics"
	"quaestor/internal/replication"
	"quaestor/internal/server"
	"quaestor/internal/store"
)

// readRoutingDocs is the preloaded corpus per topology.
const readRoutingDocs = 2_000

// readRoutingReplicas is the scale-out axis; 0 replicas is the
// primary-only baseline each bound's speedup is measured against.
var readRoutingReplicas = []int{0, 1, 2}

// readRoutingBounds: 0 demands primary-equivalence (must cost nothing vs
// the baseline beyond noise), 1s tolerates one heartbeat of replica lag
// (the replication stream's idle staleness resolution is 500ms).
var readRoutingBounds = []time.Duration{0, time.Second}

// Node capacity model: each node serves at most rrSlots requests
// concurrently, each costing rrServiceTime. One node therefore caps near
// slots/service ops/s, and adding replica nodes adds real capacity. The
// service time is deliberately large relative to the in-process request
// CPU cost (~0.7ms on a small CI core) so per-node capacity — not the
// benchmark host's single core — is the binding constraint; otherwise the
// grid would measure the host, not the topology.
const (
	rrSlots       = 2
	rrServiceTime = 5 * time.Millisecond
)

// rrParallelism multiplies GOMAXPROCS into the reader worker count —
// enough pressure to saturate every node's slots even on one core.
const rrParallelism = 12

// ReadRoutingCell is one measured grid point.
type ReadRoutingCell struct {
	Replicas    int     `json:"replicas"`
	BoundMs     float64 `json:"boundMs"`
	Workers     int     `json:"workers"`
	NsOp        int64   `json:"nsOp"`
	ReadsPerSec float64 `json:"readsPerSec"`
	// SpeedupVsPrimaryOnly is this cell's read throughput over the
	// 0-replica cell at the same bound — the read-scaling headline.
	SpeedupVsPrimaryOnly float64 `json:"speedupVsPrimaryOnly"`
	// Tier shares: fraction of the session's served reads answered by
	// each tier (client cache is disabled in this harness, so primary +
	// replica sum to 1).
	PrimaryShare float64 `json:"primaryShare"`
	ReplicaShare float64 `json:"replicaShare"`
	// PrimaryReads counts requests the primary actually served during the
	// cell (its CPU proxy); StalenessRejects counts replica-side 412s,
	// StalenessRetries the client-side re-routes they caused.
	PrimaryReads     uint64 `json:"primaryReads"`
	StalenessRejects uint64 `json:"stalenessRejects"`
	StalenessRetries uint64 `json:"stalenessRetries"`
}

// ReadRoutingResult is the full grid run, JSON-marshalable for BENCH
// files.
type ReadRoutingResult struct {
	Docs      int               `json:"docs"`
	Slots     int               `json:"slotsPerNode"`
	ServiceUs int64             `json:"serviceTimeUs"`
	Cells     []ReadRoutingCell `json:"cells"`
}

// capacityHandler is the per-node capacity gate.
type capacityHandler struct {
	inner http.Handler
	slots chan struct{}
}

func newCapacityHandler(inner http.Handler) *capacityHandler {
	return &capacityHandler{inner: inner, slots: make(chan struct{}, rrSlots)}
}

func (h *capacityHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.slots <- struct{}{}
	defer func() { <-h.slots }()
	time.Sleep(rrServiceTime)
	h.inner.ServeHTTP(w, r)
}

// rrTopology is one primary + N-replica deployment with capacity-gated
// client-facing handlers. The replication feed runs over a real socket
// (the stream needs a flushing writer) and bypasses the gate: the model
// prices client serving, not log shipping.
type rrTopology struct {
	primaryURL string
	db         *store.Store
	srv        *server.Server
	feed       *httptest.Server
	replicas   []*replication.Replica
	replSrvs   []*server.Server
	replDBs    []*store.Store
	handlers   map[string]http.Handler
	closers    []func()
}

func (t *rrTopology) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

func rrOpen(nReplicas, docs int) (*rrTopology, error) {
	t := &rrTopology{primaryURL: "http://primary", handlers: map[string]http.Handler{}}
	t.db = store.MustOpen(nil)
	t.srv = server.New(t.db, nil)
	t.closers = append(t.closers, t.db.Close, t.srv.Close)
	if err := t.db.CreateTable("docs"); err != nil {
		t.close()
		return nil, err
	}
	for i := 0; i < docs; i++ {
		doc := document.New(fmt.Sprintf("k%06d", i), map[string]any{"rank": int64(i)})
		if err := t.db.Insert("docs", doc); err != nil {
			t.close()
			return nil, err
		}
	}
	t.handlers[t.primaryURL] = newCapacityHandler(t.srv.Handler())
	t.feed = httptest.NewServer(t.srv.Handler())
	t.closers = append(t.closers, t.feed.Close)

	var urls []string
	for i := 0; i < nReplicas; i++ {
		url := fmt.Sprintf("http://replica-%d", i)
		rdb := store.MustOpen(nil)
		repl := replication.New(replication.Options{
			Store:      rdb,
			Primary:    t.feed.URL,
			Name:       fmt.Sprintf("bench-r%d", i),
			MinBackoff: 5 * time.Millisecond,
			MaxBackoff: 100 * time.Millisecond,
		})
		repl.Run()
		rsrv := server.New(rdb, nil)
		rsrv.AttachReplicas(repl)
		t.closers = append(t.closers, rdb.Close, repl.Stop, rsrv.Close)
		t.handlers[url] = newCapacityHandler(rsrv.Handler())
		t.replicas = append(t.replicas, repl)
		t.replSrvs = append(t.replSrvs, rsrv)
		t.replDBs = append(t.replDBs, rdb)
		urls = append(urls, url)
	}
	t.srv.SetReplicaEndpoints(t.primaryURL, urls)

	// Replicas must be provably caught up before measuring, or the first
	// bounded reads all divert to the primary and understate the tier.
	deadline := time.Now().Add(30 * time.Second)
	for _, repl := range t.replicas {
		for {
			st := repl.Status()
			if st.State == replication.StateStreaming && st.StalenessMs >= 0 && st.LastSeq >= t.db.LastSeq() {
				break
			}
			if time.Now().After(deadline) {
				t.close()
				return nil, fmt.Errorf("replica %s never caught up: %+v", repl.Status().Primary, st)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return t, nil
}

// ReadRouting measures every (replicas × bound) cell at the given scale.
func ReadRouting(sc Scale) (*ReadRoutingResult, error) {
	docs := sc.count(readRoutingDocs)
	result := &ReadRoutingResult{
		Docs:      docs,
		Slots:     rrSlots,
		ServiceUs: rrServiceTime.Microseconds(),
	}
	baseline := map[time.Duration]float64{}
	for _, nRepl := range readRoutingReplicas {
		topo, err := rrOpen(nRepl, docs)
		if err != nil {
			return nil, err
		}
		for _, bound := range readRoutingBounds {
			cell, err := rrMeasure(topo, nRepl, bound, docs)
			if err != nil {
				topo.close()
				return nil, err
			}
			if nRepl == 0 {
				baseline[bound] = cell.ReadsPerSec
			}
			if base := baseline[bound]; base > 0 {
				cell.SpeedupVsPrimaryOnly = cell.ReadsPerSec / base
			}
			result.Cells = append(result.Cells, *cell)
		}
		topo.close()
	}
	return result, nil
}

// rrMeasure runs one cell: a background writer keeps the replication
// stream hot (and the primary's write path busy) while gated readers
// measure bounded-read throughput.
func rrMeasure(topo *rrTopology, nRepl int, bound time.Duration, docs int) (*ReadRoutingCell, error) {
	transport := client.NewHostMapTransport(topo.handlers)
	writer, err := client.Dial(&client.Options{
		BaseURL: topo.primaryURL, Transport: transport, DisableCache: true,
	})
	if err != nil {
		return nil, err
	}
	reader, err := client.Dial(&client.Options{
		BaseURL: topo.primaryURL, Transport: transport, DisableCache: true,
		DiscoverReplicas: true,
	})
	if err != nil {
		return nil, err
	}

	primaryBefore := topo.srv.Stats()
	var rejectsBefore uint64
	for _, rs := range topo.replSrvs {
		rejectsBefore += rs.Stats().StalenessRejects
	}

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		wrng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("k%06d", wrng.Intn(docs))
			doc := document.New(id, map[string]any{"rank": int64(i)})
			if err := writer.Put("docs", doc); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	opts := client.WithMaxStaleness(bound)
	var seed int64
	res := testing.Benchmark(func(b *testing.B) {
		b.SetParallelism(rrParallelism)
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(atomic.AddInt64(&seed, 1)))
			for pb.Next() {
				id := fmt.Sprintf("k%06d", rng.Intn(docs))
				if _, err := reader.ReadWith("docs", id, opts); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	close(stop)
	<-writerDone

	st := reader.Stats()
	primaryAfter := topo.srv.Stats()
	var rejectsAfter uint64
	for _, rs := range topo.replSrvs {
		rejectsAfter += rs.Stats().StalenessRejects
	}

	cell := &ReadRoutingCell{
		Replicas:         nRepl,
		BoundMs:          float64(bound) / float64(time.Millisecond),
		Workers:          rrParallelism * runtime.GOMAXPROCS(0),
		NsOp:             res.NsPerOp(),
		PrimaryReads:     primaryAfter.ServedPrimary - primaryBefore.ServedPrimary,
		StalenessRejects: rejectsAfter - rejectsBefore,
		StalenessRetries: st.StalenessRetries,
	}
	if cell.NsOp > 0 {
		cell.ReadsPerSec = 1e9 / float64(cell.NsOp)
	}
	if total := st.ReadsByTier.Primary + st.ReadsByTier.Replica + st.ReadsByTier.ClientCache; total > 0 {
		cell.PrimaryShare = float64(st.ReadsByTier.Primary) / float64(total)
		cell.ReplicaShare = float64(st.ReadsByTier.Replica) / float64(total)
	}
	return cell, nil
}

// Table renders the grid as the summary table the bench runner prints.
func (r *ReadRoutingResult) Table() string {
	tbl := metrics.NewTable("replicas", "bound", "ns/op", "reads/sec", "vs-primary-only", "primary-share", "replica-share", "412s")
	for _, c := range r.Cells {
		tbl.AddRow(
			fmt.Sprintf("%d", c.Replicas),
			fmt.Sprintf("%.0fms", c.BoundMs),
			fmtNs(c.NsOp),
			fmt.Sprintf("%.0f", c.ReadsPerSec),
			fmt.Sprintf("%.2fx", c.SpeedupVsPrimaryOnly),
			fmt.Sprintf("%.0f%%", c.PrimaryShare*100),
			fmt.Sprintf("%.0f%%", c.ReplicaShare*100),
			fmt.Sprintf("%d", c.StalenessRejects),
		)
	}
	return tbl.String()
}

// ReadRoutingReport runs the grid, optionally writes the machine-readable
// JSON record to outPath, and returns the formatted summary.
func ReadRoutingReport(sc Scale, outPath string) string {
	r, err := ReadRouting(sc)
	if err != nil {
		return fmt.Sprintf("readrouting failed: %v\n", err)
	}
	out := section(fmt.Sprintf(
		"Read routing grid — bounded-read throughput vs replica count (%d docs, %d slots × %dµs per node)",
		r.Docs, r.Slots, r.ServiceUs), r.Table())
	if outPath != "" {
		data, err := json.MarshalIndent(r, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			out += fmt.Sprintf("write %s: %v\n", outPath, err)
		} else {
			out += fmt.Sprintf("wrote %s\n", outPath)
		}
	}
	return out
}
