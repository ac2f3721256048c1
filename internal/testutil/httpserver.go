package testutil

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
)

// StartServer is httptest.NewServer for handlers that serve long-lived
// streams (replication feeds, SSE): every request's context hangs off one
// base context, and stop cancels it — ending the streams, as
// cmd/quaestor-server's shutdown does — before it cuts the connections and
// closes the server. httptest.Server.Close alone waits for handlers that
// only return when their peer goes away, and a peer that reconnects between
// CloseClientConnections and Close keeps it waiting for ever. stop may be
// called more than once.
func StartServer(h http.Handler) (ts *httptest.Server, stop func()) {
	streams, endStreams := context.WithCancel(context.Background())
	ts = httptest.NewUnstartedServer(h)
	ts.Config.BaseContext = func(net.Listener) context.Context { return streams }
	ts.Start()
	return ts, func() {
		endStreams()
		ts.CloseClientConnections()
		ts.Close()
	}
}
