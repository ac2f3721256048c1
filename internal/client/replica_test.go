package client

// Tests for the client's staleness-header consumption: responses served
// by a replica carry X-Quaestor-Replica / X-Quaestor-Staleness-Ms /
// X-Quaestor-Replica-Lag, which the SDK folds into per-read metadata and
// a max-observed-staleness stat — the admission-bound groundwork for
// routing reads across replicas.

import (
	"net/http"
	"testing"

	"quaestor/internal/document"
	"quaestor/internal/server"
)

// replicaAnnotator wraps a handler, stamping every response with the
// replica staleness headers a replica-fronting server would add.
type replicaAnnotator struct {
	inner       http.Handler
	stalenessMs string
	lagSeq      string
}

func (a *replicaAnnotator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(server.HeaderReplica, "streaming")
	if a.stalenessMs != "" {
		w.Header().Set(server.HeaderStaleness, a.stalenessMs)
	}
	if a.lagSeq != "" {
		w.Header().Set(server.HeaderReplicaLag, a.lagSeq)
	}
	a.inner.ServeHTTP(w, r)
}

func TestClientParsesReplicaStalenessHeaders(t *testing.T) {
	s := newStack(t, nil)
	ann := &replicaAnnotator{inner: s.srv.Handler(), stalenessMs: "42", lagSeq: "7"}
	c := s.dial(t, &Options{Transport: NewHandlerTransport(ann)})

	// The initial EBF fetch already went through the annotated surface.
	if got := c.Stats().ReplicaResponses; got == 0 {
		t.Error("EBF fetch did not count as a replica response")
	}

	if err := c.Insert("posts", document.New("p1", map[string]any{"v": 1})); err != nil {
		t.Fatal(err)
	}
	// The first read of the session's own write goes to the network.
	if _, err := c.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}

	meta := c.LastReplicaMeta()
	if !meta.Replica || meta.State != "streaming" {
		t.Errorf("LastReplicaMeta = %+v, want streaming replica", meta)
	}
	if meta.StalenessMs != 42 {
		t.Errorf("StalenessMs = %v, want 42", meta.StalenessMs)
	}
	if meta.LagSeq != 7 {
		t.Errorf("LagSeq = %d, want 7", meta.LagSeq)
	}
	st := c.Stats()
	if st.MaxStalenessMs != 42 {
		t.Errorf("MaxStalenessMs = %v, want 42", st.MaxStalenessMs)
	}
	if st.ReplicaResponses < 2 {
		t.Errorf("ReplicaResponses = %d, want >= 2", st.ReplicaResponses)
	}

	// A bigger bound raises the max; a smaller one does not lower it.
	ann.stalenessMs = "90"
	if _, err := c.ReadWith("posts", "p1", ReadOptions{Consistency: Strong}); err != nil {
		t.Fatal(err)
	}
	ann.stalenessMs = "5"
	if _, err := c.ReadWith("posts", "p1", ReadOptions{Consistency: Strong}); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.MaxStalenessMs != 90 {
		t.Errorf("MaxStalenessMs = %v, want 90 (monotone max)", st.MaxStalenessMs)
	}
	if got := c.LastReplicaMeta().StalenessMs; got != 5 {
		t.Errorf("latest StalenessMs = %v, want 5", got)
	}

	// Primary responses (no header) leave the replica stats untouched.
	plain := s.dial(t, nil)
	if _, err := plain.Read("posts", "p1"); err != nil {
		t.Fatal(err)
	}
	if st := plain.Stats(); st.ReplicaResponses != 0 || st.MaxStalenessMs != 0 {
		t.Errorf("primary-served session recorded replica stats: %+v", st)
	}
	if m := plain.LastReplicaMeta(); m.Replica {
		t.Errorf("primary-served session has replica meta: %+v", m)
	}
}

// TestClientReplicaHeadersAgainstRealReplicaShape drives the real
// header-producing path end to end at the server layer: a server with an
// attached replica annotates /v1/ebf and record reads, and the client
// parses them. (Replication itself is covered in internal/replication;
// here the replica is only attached for its status surface.)
func TestClientObservesHeadersOnEBFEndpoint(t *testing.T) {
	s := newStack(t, nil)
	ann := &replicaAnnotator{inner: s.srv.Handler(), stalenessMs: "13"}
	c := s.dial(t, &Options{Transport: NewHandlerTransport(ann)})
	// Force an explicit EBF refresh and confirm it flowed into the stats.
	before := c.Stats().ReplicaResponses
	if err := c.refreshEBF(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ReplicaResponses; got != before+1 {
		t.Errorf("ReplicaResponses = %d after EBF refresh, want %d", got, before+1)
	}
	if got := c.Stats().MaxStalenessMs; got != 13 {
		t.Errorf("MaxStalenessMs = %v, want 13", got)
	}
}
