package client

// Shard-aware SDK tests: first contact with a sharded server caches the
// shard map, epoch changes trigger a refetch (and a retry when the map
// moves the record), point ops route client-side when the map names
// per-shard nodes, and writes bounced 503 by a read-only replica
// redirect once to the advertised primary.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"quaestor/internal/cluster"
	"quaestor/internal/document"
	"quaestor/internal/server"
)

// hostRouter dispatches in-process requests by URL host, so one client
// can talk to several "nodes" without sockets.
type hostRouter struct {
	hosts map[string]http.Handler
}

func (h *hostRouter) RoundTrip(req *http.Request) (*http.Response, error) {
	handler, ok := h.hosts[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no route for host %q", req.URL.Host)
	}
	return NewHandlerTransport(handler).RoundTrip(req)
}

// epochOverride rewrites the shard-epoch header on every response,
// simulating a server whose map moved past the client's cached copy.
type epochOverride struct {
	inner http.Handler
	epoch string
}

func (a *epochOverride) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.inner.ServeHTTP(w, r)
	// HandlerTransport materializes the response only after the handler
	// returns, so overriding here wins over the server's own stamp.
	if a.epoch != "" {
		w.Header().Set(server.HeaderShardEpoch, a.epoch)
	}
}

func TestClientShardMapFirstContactAndEpochRefresh(t *testing.T) {
	router := cluster.MustOpen(cluster.Options{Shards: 2})
	srv := server.NewCluster(router, nil)
	t.Cleanup(func() {
		srv.Close()
		router.Close()
	})
	if err := router.CreateTable("posts"); err != nil {
		t.Fatal(err)
	}
	ann := &epochOverride{inner: srv.Handler()}
	c, err := Dial(&Options{Transport: NewHandlerTransport(ann)})
	if err != nil {
		t.Fatal(err)
	}

	// Dial's EBF fetch already carried the epoch header: first contact
	// caches the map without any retry.
	if m := c.ShardMap(); m == nil || m.Shards != 2 {
		t.Fatalf("ShardMap after first contact = %+v, want 2 shards", c.ShardMap())
	}
	st := c.Stats()
	if st.ShardMapRefreshes != 1 {
		t.Errorf("ShardMapRefreshes = %d, want 1", st.ShardMapRefreshes)
	}
	if st.ShardRetries != 0 {
		t.Errorf("ShardRetries = %d, want 0 on first contact", st.ShardRetries)
	}

	// Point ops flow through the sharded stack.
	if err := c.Insert("posts", document.New("p1", map[string]any{"v": 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadWith("posts", "p1", ReadOptions{Consistency: Strong}); err != nil {
		t.Fatal(err)
	}

	// An unseen epoch forces a map refetch; the refreshed map is
	// identical (single endpoint), so no retry is due.
	before := c.Stats().ShardMapRefreshes
	ann.epoch = "9"
	if _, err := c.ReadWith("posts", "p1", ReadOptions{Consistency: Strong}); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.ShardMapRefreshes <= before {
		t.Errorf("ShardMapRefreshes = %d, want > %d after epoch change", st.ShardMapRefreshes, before)
	}
	if st.ShardRetries != 0 {
		t.Errorf("ShardRetries = %d, want 0 (map did not move the record)", st.ShardRetries)
	}
}

// recordingHandler wraps a handler and remembers which paths it served.
type recordingHandler struct {
	inner http.Handler
	hits  *[]string
	name  string
}

func (h *recordingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	*h.hits = append(*h.hits, h.name+" "+r.URL.Path)
	h.inner.ServeHTTP(w, r)
}

// mapServer serves a fabricated multi-node shard map and proxies
// everything else to the backing stack.
type mapServer struct {
	inner http.Handler
	smap  *cluster.ShardMap
}

func (m *mapServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/cluster/map" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(m.smap)
		return
	}
	m.inner.ServeHTTP(w, r)
}

func TestClientRoutesPointOpsAcrossNodes(t *testing.T) {
	s := newStack(t, nil)
	smap := cluster.NewShardMap(2)
	smap.Nodes = []string{"http://node0", "http://node1"}

	var hits0, hits1 []string
	transport := &hostRouter{hosts: map[string]http.Handler{
		"any":   &mapServer{inner: s.srv.Handler(), smap: smap},
		"node0": &recordingHandler{inner: s.srv.Handler(), hits: &hits0, name: "node0"},
		"node1": &recordingHandler{inner: s.srv.Handler(), hits: &hits1, name: "node1"},
	}}
	c, err := Dial(&Options{Transport: transport, BaseURL: "http://any"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RefreshShardMap(); err != nil {
		t.Fatal(err)
	}
	if m := c.ShardMap(); m == nil || len(m.Nodes) != 2 {
		t.Fatalf("cached map = %+v", c.ShardMap())
	}

	// Each point op must land on the node owning the id's shard.
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("doc-%d", i)
		if err := c.Insert("posts", document.New(id, map[string]any{"v": i})); err != nil {
			t.Fatal(err)
		}
		want := smap.Shard(id)
		got0, got1 := len(hits0), len(hits1)
		if want == 0 && got0 == 0 || want == 1 && got1 == 0 {
			t.Fatalf("insert %s: expected shard %d's node to serve it (node0=%d node1=%d hits)", id, want, got0, got1)
		}
		hits0, hits1 = nil, nil
	}

	// The first read of the session's own write goes to the network: it
	// must route to the owning node too.
	hits0, hits1 = nil, nil
	if _, err := c.Read("posts", "doc-1"); err != nil {
		t.Fatal(err)
	}
	if want := smap.Shard("doc-1"); want == 0 && len(hits0) == 0 || want == 1 && len(hits1) == 0 {
		t.Errorf("routed read missed shard %d's node", want)
	}
}

// readOnlyBouncer simulates a replica: writes bounce 503 with the
// primary advertised, reads proxy through.
type readOnlyBouncer struct {
	inner   http.Handler
	primary string
}

func (b *readOnlyBouncer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set(server.HeaderPrimary, b.primary)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"store is read-only (replica)"}`))
		return
	}
	b.inner.ServeHTTP(w, r)
}

func TestClientRedirectsBouncedWriteToPrimary(t *testing.T) {
	s := newStack(t, nil)
	transport := &hostRouter{hosts: map[string]http.Handler{
		"replica": &readOnlyBouncer{inner: s.srv.Handler(), primary: "http://primary"},
		"primary": s.srv.Handler(),
	}}
	c, err := Dial(&Options{Transport: transport, BaseURL: "http://replica"})
	if err != nil {
		t.Fatal(err)
	}

	// The write bounces on the replica and lands on the primary.
	if err := c.Insert("posts", document.New("p1", map[string]any{"v": 1})); err != nil {
		t.Fatalf("bounced write did not redirect: %v", err)
	}
	if got := c.Stats().PrimaryRedirects; got != 1 {
		t.Errorf("PrimaryRedirects = %d, want 1", got)
	}
	if _, err := s.db.Get("posts", "p1"); err != nil {
		t.Errorf("redirected write not applied at the primary: %v", err)
	}

	// Reads keep flowing through the replica.
	if _, err := c.ReadWith("posts", "p1", ReadOptions{Consistency: Strong}); err != nil {
		t.Fatal(err)
	}

	// A primary that does not advertise itself cannot be redirected to:
	// the client surfaces the 503.
	bare := &readOnlyBouncer{inner: s.srv.Handler(), primary: ""}
	c2, err := Dial(&Options{Transport: NewHandlerTransport(bare)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Insert("posts", document.New("p2", map[string]any{"v": 1})); err == nil {
		t.Error("write succeeded with no primary hint; want 503 error")
	}
}
