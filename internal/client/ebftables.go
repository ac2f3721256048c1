package client

import (
	"compress/gzip"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"quaestor/internal/ebf"
	"quaestor/internal/server"
)

// This file loads the coherence signal: the aggregate filter, and per-table
// EBF consumption (Section 3.3): "clients can also exploit the
// table-specific EBFs to decrease the total false positive rate at the
// expense of loading more individual EBFs". In per-table mode the client
// lazily fetches one filter per table it touches and refreshes each
// independently under the same Δ.

// renewEBF fetches a snapshot of table ("" = the aggregate) from base and
// installs it in view, or in a new view on first contact (view == nil).
// The poll echoes the position of the snapshot view holds, so the origin
// can say what it flagged since and the view's whitelist can be carried
// over; from any other node, or past what the origin's logs cover, the
// answer says nothing and the renewal clears the whitelist.
func (c *Client) renewEBF(base, table string, view *ebf.ClientView) (*ebf.ClientView, error) {
	var since ebf.Position
	if view != nil {
		since = view.Position()
	}
	snap, err := c.fetchEBF(base, table, since)
	if err != nil {
		return view, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.EBFRefreshes++
	if view == nil {
		return ebf.NewClientView(snap), nil
	}
	if !view.Refresh(snap) {
		c.stats.RenewalsUncovered++
	}
	return view, nil
}

// fetchEBF retrieves a filter snapshot from base — the default endpoint,
// or for piggyback refreshes the replica that served the read. since, when
// set, is echoed as ?epoch=&since=. Gzip transfer encoding is negotiated
// explicitly, as the sparse filter compresses well.
func (c *Client) fetchEBF(base, table string, since ebf.Position) (ebf.Snapshot, error) {
	params := url.Values{}
	if table != "" {
		params.Set("table", table)
	}
	if since.Epoch != 0 {
		params.Set("epoch", strconv.FormatUint(since.Epoch, 10))
		params.Set("since", strconv.FormatUint(since.Cursor, 10))
	}
	path := "/v1/ebf"
	if len(params) > 0 {
		path += "?" + params.Encode()
	}
	resp, err := c.send(c.http, base, http.MethodGet, path, nil, false, http.Header{"Accept-Encoding": {"gzip"}})
	if err != nil {
		return ebf.Snapshot{}, err
	}
	defer resp.Body.Close()
	// First contact with a sharded server may happen here (Dial fetches
	// the EBF before any data op): cache the shard map for point-op
	// routing. No retry — the EBF is shard-agnostic.
	c.observeShardEpoch(resp.Header, "")
	if resp.StatusCode != http.StatusOK {
		return ebf.Snapshot{}, fmt.Errorf("client: EBF endpoint returned %s", resp.Status)
	}
	var rdr io.Reader = resp.Body
	if resp.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(resp.Body)
		if err != nil {
			return ebf.Snapshot{}, err
		}
		defer gz.Close()
		rdr = gz
	}
	return decodeEBFResponse(rdr, since)
}

// decodeEBFResponse parses a /v1/ebf body that answered a poll positioned
// at since. Whatever the body claims, it is Covered only from the position
// that was sent, in the epoch that was sent.
func decodeEBFResponse(r io.Reader, since ebf.Position) (ebf.Snapshot, error) {
	var body server.EBFResponse
	if err := json.NewDecoder(r).Decode(&body); err != nil {
		return ebf.Snapshot{}, err
	}
	img := ebf.Image{
		GeneratedAt: time.Unix(0, body.GeneratedAt),
		Entries:     body.Entries,
		At:          ebf.Position{Epoch: body.Epoch, Cursor: body.Cursor},
		Since:       since.Cursor,
	}
	var err error
	if img.Wire, err = base64.StdEncoding.DecodeString(body.Filter); err != nil {
		return ebf.Snapshot{}, err
	}
	if body.Recent != nil {
		if img.Recent, err = base64.StdEncoding.DecodeString(*body.Recent); err != nil {
			return ebf.Snapshot{}, err
		}
		img.Covered = since.Epoch != 0 && since.Epoch == body.Epoch
	}
	return img.Snapshot()
}

// tableView returns (lazily creating and refreshing) the per-table filter
// view for a key's table.
func (c *Client) tableView(key string) *ebf.ClientView {
	table := ebf.TableOf(key)
	c.mu.Lock()
	v := c.tableViews[table]
	c.mu.Unlock()
	if v != nil && v.Age(c.opts.Clock()) < c.opts.RefreshInterval {
		return v
	}
	// On error keep serving the stale view rather than failing reads.
	if renewed, err := c.renewEBF(c.opts.BaseURL, table, v); err == nil && v == nil {
		c.mu.Lock()
		c.tableViews[table] = renewed
		c.mu.Unlock()
		return renewed
	}
	return v
}
