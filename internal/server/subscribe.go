package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"quaestor/internal/invalidb"
	"quaestor/internal/query"
	"quaestor/internal/ttl"
)

// This file implements real-time query change streams (Section 3.2):
// "clients can directly subscribe to websocket-based query result change
// streams that are otherwise only used for the construction of the EBF.
// Through this synchronization scheme, the application can define its
// critical data set through queries and keep it up-to-date in real-time."
// The transport here is Server-Sent Events (SSE) rather than websockets —
// the semantics (a push stream of add/remove/change/changeIndex events per
// subscribed query) are identical and stdlib-only.

// subscriptionBuffer is how many notifications a subscription holds for
// its consumer before it drops them.
const subscriptionBuffer = 256

// Subscription is a live feed of change notifications for one query.
type Subscription struct {
	ch     chan invalidb.Notification
	cancel func()
}

// Events returns the notification stream.
func (s *Subscription) Events() <-chan invalidb.Notification { return s.ch }

// Close detaches the subscription.
func (s *Subscription) Close() { s.cancel() }

// Subscribe registers the query for invalidation detection (if it is not
// active yet) and returns a live notification feed. The subscription pins
// the query's active-list entry, so admission pressure cannot evict it
// while the feed is open; when the list is full of entries that cannot be
// evicted, Subscribe fails with invalidb.ErrAtCapacity. Slow subscribers
// drop events rather than stalling the pipeline.
func (s *Server) Subscribe(q *query.Query) (*Subscription, error) {
	key := q.Key()
	admitted, err := s.active.Pin(key, func() error {
		asOfs := s.router.LastSeqs()
		matches, err := s.unwindowedMatches(q)
		if err != nil {
			return err
		}
		return s.activate(q, matches, asOfs, ttl.ObjectList)
	})
	if err != nil {
		return nil, err
	}
	if !admitted {
		return nil, invalidb.ErrAtCapacity
	}
	ch := make(chan invalidb.Notification, subscriptionBuffer)
	s.mu.Lock()
	if s.subscribers == nil {
		s.subscribers = map[string]map[int]chan invalidb.Notification{}
	}
	if s.subscribers[key] == nil {
		s.subscribers[key] = map[int]chan invalidb.Notification{}
	}
	id := s.nextSubID
	s.nextSubID++
	s.subscribers[key][id] = ch
	s.mu.Unlock()

	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if m, ok := s.subscribers[key]; ok {
			if c, ok := m[id]; ok {
				delete(m, id)
				close(c)
				s.active.Unpin(key)
			}
			if len(m) == 0 {
				delete(s.subscribers, key)
			}
		}
	}
	return &Subscription{ch: ch, cancel: cancel}, nil
}

// fanOutToSubscribers relays one notification to all live subscriptions
// of its query; called from the notification loop. The sends are
// non-blocking, so they run under the lock — that is what makes them
// safe against a concurrent Close() on the subscription's channel.
func (s *Server) fanOutToSubscribers(n invalidb.Notification) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ch := range s.subscribers[n.QueryKey] {
		select {
		case ch <- n:
		default:
			// Drop for slow consumers; the EBF still covers them. The
			// drop is counted in /v1/stats' pipeline section.
			s.sseDropped.Add(1)
		}
	}
}

// SubscriptionEvent is the SSE JSON payload.
type SubscriptionEvent struct {
	QueryKey string         `json:"query"`
	Type     string         `json:"type"`
	ID       string         `json:"id"`
	Doc      map[string]any `json:"doc,omitempty"`
	Index    int            `json:"index"`
	Seq      uint64         `json:"seq"`
}

// handleSubscribe serves GET /v1/subscribe?table=…&q=…&sort=…&limit=… as a
// Server-Sent Events stream: one `data:` line per notification.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, &httpError{http.StatusMethodNotAllowed, "GET only"})
		return
	}
	table := r.URL.Query().Get("table")
	if table == "" {
		writeError(w, badRequest("missing table parameter"))
		return
	}
	q, err := ParseQueryRequest(table, r.URL.Query())
	if err != nil {
		writeError(w, err)
		return
	}
	sub, err := s.Subscribe(q)
	if err != nil {
		writeError(w, err)
		return
	}
	defer sub.Close()

	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set(HeaderKey, q.Key())
	// Replica-served streams are annotated like any other read: the
	// staleness bound at attach time.
	s.addReplicaHeaders(w, "")
	w.WriteHeader(http.StatusOK)
	if canFlush {
		flusher.Flush()
	}

	ctx := r.Context()
	for {
		select {
		case n, ok := <-sub.Events():
			if !ok {
				return
			}
			ev := SubscriptionEvent{
				QueryKey: n.QueryKey,
				Type:     n.Type.String(),
				Index:    n.Index,
				Seq:      n.Seq,
			}
			if n.Doc != nil {
				ev.ID = n.Doc.ID
				ev.Doc = n.Doc.Body()
			}
			payload, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", payload); err != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		case <-ctx.Done():
			return
		}
	}
}
