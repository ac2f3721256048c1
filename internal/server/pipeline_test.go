package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/invalidb"
	"quaestor/internal/query"
	"quaestor/internal/store"
)

// TestPropertySSEAndInvaliDBObserveSeqOrder races 64 writers over a small
// key space and asserts that both downstream consumers of the commit
// pipeline — an InvaliDB cell (1×1 grid, so one matching task sees every
// event) and a real SSE client reading /v1/subscribe — observe strictly
// increasing Seq, and that the ordered-ingestion assertion never fired.
func TestPropertySSEAndInvaliDBObserveSeqOrder(t *testing.T) {
	cfg := invalidb.Config{QueryPartitions: 1, ObjectPartitions: 1, Buffer: 1 << 14}
	srv := newTestServer(t, 1, &Options{InvaliDB: &cfg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Server-level subscription (the same feed an SSE handler serves).
	q := query.New("posts", query.Contains("tags", "hot"))
	sub, err := srv.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	var subMu sync.Mutex
	var subSeqs []uint64
	go func() {
		for n := range sub.Events() {
			subMu.Lock()
			subSeqs = append(subSeqs, n.Seq)
			subMu.Unlock()
		}
	}()

	// Raw SSE client over HTTP.
	resp, err := http.Get(ts.URL + "/v1/subscribe?table=posts&q=" + `{"tags":{"$contains":"hot"}}`)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sseMu sync.Mutex
	var sseSeqs []uint64
	go func() {
		reader := bufio.NewReader(resp.Body)
		for {
			line, err := reader.ReadString('\n')
			if err != nil {
				return
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev SubscriptionEvent
			if json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &ev) == nil {
				sseMu.Lock()
				sseSeqs = append(sseSeqs, ev.Seq)
				sseMu.Unlock()
			}
		}
	}()

	const writers, opsEach, keys = 64, 20, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := 0; op < opsEach; op++ {
				id := fmt.Sprintf("p%02d", (w*opsEach+op)%keys)
				doc := document.New(id, map[string]any{
					"tags": []any{"hot"}, "w": int64(w), "op": int64(op),
				})
				if err := srv.Put("posts", doc); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if !srv.InvaliDB().Quiesce(10 * time.Second) {
		t.Fatal("invalidb did not quiesce")
	}
	waitFor(t, 5*time.Second, func() bool {
		subMu.Lock()
		defer subMu.Unlock()
		return len(subSeqs) > 0
	})
	time.Sleep(50 * time.Millisecond) // let the SSE body flushes land

	if v := srv.InvaliDB().OrderViolations(); v != 0 {
		t.Errorf("ordered-ingestion assertion fired %d times", v)
	}
	checkIncreasing := func(name string, seqs []uint64) {
		if len(seqs) == 0 {
			t.Errorf("%s observed no events", name)
			return
		}
		last := uint64(0)
		for i, s := range seqs {
			// Gaps are fine (SSE sheds under burst; notifications only
			// cover matching writes) — going backwards never is.
			if s <= last {
				t.Errorf("%s event %d has seq %d after %d — out of order", name, i, s, last)
				return
			}
			last = s
		}
	}
	subMu.Lock()
	checkIncreasing("server subscription", subSeqs)
	subMu.Unlock()
	sseMu.Lock()
	checkIncreasing("sse client", sseSeqs)
	sseMu.Unlock()
}

// TestStatsPipelineSection checks that /v1/stats exposes the commit
// pipeline: the named invalidb subscriber with lag accounting, sequencer
// occupancy and the publish→deliver latency histogram.
func TestStatsPipelineSection(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		srv := newTestServer(t, shards, nil)
		insertPost(t, srv, "p1", "x")
		owner := srv.router.ShardFor("p1")
		waitFor(t, 5*time.Second, func() bool {
			st := srv.router.Store(owner).PipelineStats()
			for _, sub := range st.Stream.Subscribers {
				if sub.Name == "invalidb" && sub.Delivered > 0 {
					return true
				}
			}
			return false
		})

		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("stats = %d", rec.Code)
		}
		type pipeline struct {
			Stream struct {
				LastSeq     uint64 `json:"lastSeq"`
				Published   uint64 `json:"published"`
				Subscribers []struct {
					Name      string `json:"name"`
					Delivered uint64 `json:"delivered"`
					LagSeq    uint64 `json:"lagSeq"`
				} `json:"subscribers"`
				Latency struct {
					Batches uint64 `json:"batches"`
				} `json:"publishToDeliver"`
			} `json:"stream"`
		}
		var resp struct {
			Pipeline pipeline `json:"pipeline"`
			Cluster  struct {
				Shards []struct {
					Pipeline pipeline `json:"pipeline"`
				} `json:"shards"`
			} `json:"cluster"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("bad stats payload: %v\n%s", err, rec.Body.String())
		}
		if len(resp.Cluster.Shards) != shards {
			t.Fatalf("cluster section has %d shards, want %d", len(resp.Cluster.Shards), shards)
		}
		// The top-level section is shard 0's; the write's own pipeline is
		// its owning shard's.
		if !reflect.DeepEqual(resp.Pipeline, resp.Cluster.Shards[0].Pipeline) {
			t.Errorf("top-level pipeline %+v differs from shard 0's %+v", resp.Pipeline, resp.Cluster.Shards[0].Pipeline)
		}
		p := resp.Cluster.Shards[owner].Pipeline
		if p.Stream.LastSeq != 1 || p.Stream.Published != 1 {
			t.Errorf("stream counters = %+v", p.Stream)
		}
		found := false
		for _, sub := range p.Stream.Subscribers {
			if sub.Name == "invalidb" {
				found = true
				if sub.Delivered != 1 || sub.LagSeq != 0 {
					t.Errorf("invalidb subscriber = %+v", sub)
				}
			}
		}
		if !found {
			t.Errorf("no invalidb subscriber in pipeline section: %+v", p.Stream.Subscribers)
		}
		if p.Stream.Latency.Batches == 0 {
			t.Error("no publish→deliver latency samples")
		}
	})
}

// TestStatsPipelineOnDurableStore makes sure the pipeline section and the
// durability section coexist for a durable server.
func TestStatsPipelineOnDurableStore(t *testing.T) {
	db, err := store.Open(&store.Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, nil)
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	if err := db.CreateTable("posts"); err != nil {
		t.Fatal(err)
	}
	insertPost(t, srv, "p1", "x")

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var resp map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if _, ok := resp["pipeline"]; !ok {
		t.Error("durable stats missing pipeline section")
	}
	if _, ok := resp["durability"]; !ok {
		t.Error("durable stats missing durability section")
	}
}
