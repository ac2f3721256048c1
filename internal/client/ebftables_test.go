package client

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/ebf"
	"quaestor/internal/store"
)

func TestPerTableEBF(t *testing.T) {
	s := newStack(t, nil)
	if err := s.db.CreateTable("users"); err != nil {
		t.Fatal(err)
	}
	writer := s.dial(t, nil)
	if err := writer.Insert("posts", document.New("p1", map[string]any{"v": 1})); err != nil {
		t.Fatal(err)
	}
	if err := writer.Insert("users", document.New("u1", map[string]any{"v": 1})); err != nil {
		t.Fatal(err)
	}

	reader := s.dial(t, &Options{PerTableEBF: true, RefreshInterval: time.Nanosecond})
	if _, err := reader.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Read("users", "u1"); err != nil {
		t.Fatal(err)
	}
	// Update only the posts record.
	if _, err := writer.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"v": 2}}); err != nil {
		t.Fatal(err)
	}
	s.srv.InvaliDB().Quiesce(5 * time.Second)

	// The per-table reader revalidates the flagged posts record...
	got, err := reader.Read("posts", "p1")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("v"); v != int64(2) {
		t.Errorf("per-table EBF missed the invalidation: v = %v", v)
	}
	// ...and the users read stays a cache hit (its partition is clean).
	n := reader.Stats().NetworkRequests
	if _, err := reader.Read("users", "u1"); err != nil {
		t.Fatal(err)
	}
	// One extra request is allowed for the lazy per-table filter refresh,
	// but the record itself must come from the cache (no revalidation).
	if reader.Stats().NetworkRequests > n+1 {
		t.Errorf("users read caused %d requests", reader.Stats().NetworkRequests-n)
	}
	if reader.Stats().EBFRefreshes < 2 {
		t.Errorf("expected separate per-table refreshes, got %d", reader.Stats().EBFRefreshes)
	}
}

func TestEBFGzipNegotiation(t *testing.T) {
	s := newStack(t, nil)
	// Raw HTTP request with gzip accept-encoding against the origin.
	req := httptest.NewRequest("GET", "/v1/ebf", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	s.srv.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("EBF fetch = %d", rec.Code)
	}
	if rec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatal("gzip not negotiated")
	}
	if strings.HasPrefix(rec.Body.String(), "{") {
		t.Error("body does not look compressed")
	}
	// The client decodes it transparently.
	c := s.dial(t, nil)
	if _, err := c.fetchEBF(c.opts.BaseURL, "", ebf.Position{}); err != nil {
		t.Fatalf("client failed to decode gzip EBF: %v", err)
	}
	// And the compressed filter is much smaller than the 14.6KB raw form.
	if rec.Body.Len() > 4096 {
		t.Errorf("sparse filter compressed to %d bytes; expected well under 4KB", rec.Body.Len())
	}
}

// TestPerTableCausalReadRenewsTableView: under PerTableEBF a Causal read
// renews the table view that answers for its key when the session has
// read anything newer than that view's snapshot, however long the
// refresh interval.
func TestPerTableCausalReadRenewsTableView(t *testing.T) {
	s := newStack(t, nil)
	if err := s.db.CreateTable("users"); err != nil {
		t.Fatal(err)
	}
	writer := s.dial(t, nil)
	if err := writer.Insert("posts", document.New("p1", map[string]any{"v": 1})); err != nil {
		t.Fatal(err)
	}
	if err := writer.Insert("users", document.New("u1", map[string]any{"v": 1})); err != nil {
		t.Fatal(err)
	}

	reader := s.dial(t, &Options{PerTableEBF: true, RefreshInterval: time.Hour})
	for range 2 {
		if _, err := reader.Read("posts", "p1"); err != nil {
			t.Fatal(err)
		}
	}
	if hits := reader.Stats().CacheHits; hits != 1 {
		t.Fatalf("posts/p1 was not cached: %d cache hits", hits)
	}
	if _, err := writer.Update("posts", "p1", store.UpdateSpec{Set: map[string]any{"v": 2}}); err != nil {
		t.Fatal(err)
	}
	s.srv.InvaliDB().Quiesce(5 * time.Second)
	// A read of another table moves the session past the posts view.
	if _, err := reader.Read("users", "u1"); err != nil {
		t.Fatal(err)
	}

	got, err := reader.ReadWith("posts", "p1", ReadOptions{Consistency: Causal})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("v"); v != int64(2) {
		t.Errorf("causal read of posts/p1 = v%v, want v2: the posts view was not renewed", v)
	}
}
