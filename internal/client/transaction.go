package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"quaestor/internal/document"
	"quaestor/internal/server"
	"quaestor/internal/store"
)

// This file implements the client side of Quaestor's optimistic ACID
// transactions (Section 3.2). Reads inside a transaction flow through the
// normal caching path — that is the point: "caching reduces transaction
// durations and can thereby achieve low abort rates". Every read's record
// version joins the read set; writes are buffered locally. Commit submits
// read set and write set for backward-oriented validation; stale cached
// reads surface as conflicts and the transaction retries.

// ErrTxnAborted is returned when a transaction exhausts its retries.
var ErrTxnAborted = errors.New("client: transaction aborted after retries")

// errRollback signals a user-requested rollback.
var errRollback = errors.New("client: transaction rolled back")

// Tx is an in-flight transaction.
type Tx struct {
	c      *Client
	reads  map[string]int64
	writes []server.TxnWriteOp
	// local overlays buffered writes so the transaction reads its own
	// uncommitted state.
	local map[string]*document.Document
}

// Read fetches a record through the cache hierarchy and records its
// version in the read set. Reads of the transaction's own buffered writes
// return the uncommitted value. The document is read-only
// (document.Document's ownership rule).
func (tx *Tx) Read(table, id string) (*document.Document, error) {
	key := server.RecordKey(table, id)
	if doc, ok := tx.local[key]; ok {
		if doc == nil {
			return nil, fmt.Errorf("client: %s deleted in this transaction", key)
		}
		return doc, nil
	}
	doc, err := tx.c.Read(table, id)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) && se.Status == http.StatusNotFound {
			// Record the observed absence: version 0.
			if _, seen := tx.reads[key]; !seen {
				tx.reads[key] = 0
			}
		}
		return nil, err
	}
	// First observation wins: validation must check the version the
	// transaction's logic actually depended on.
	if _, seen := tx.reads[key]; !seen {
		tx.reads[key] = doc.Version
	}
	return doc, nil
}

// Put buffers a full-document write. doc belongs to the transaction
// from then on (document.Document's ownership rule).
func (tx *Tx) Put(table string, doc *document.Document) {
	key := server.RecordKey(table, doc.ID)
	tx.writes = append(tx.writes, server.TxnWriteOp{Op: "put", Table: table, ID: doc.ID, Doc: doc})
	tx.local[key] = doc
}

// Update buffers a partial update. The transaction's local view applies
// the spec immediately so later reads observe it.
func (tx *Tx) Update(table, id string, spec store.UpdateSpec) error {
	key := server.RecordKey(table, id)
	base, ok := tx.local[key]
	if !ok {
		read, err := tx.Read(table, id)
		if err != nil {
			return err
		}
		base = read
	} else if base == nil {
		return fmt.Errorf("client: update of %s deleted in this transaction", key)
	}
	// Apply the spec locally for read-your-uncommitted-writes, by the
	// store's own rules. The server re-applies it authoritatively at commit.
	next := base.Clone()
	if err := store.ApplySpec(next, spec); err != nil {
		return err
	}
	specCopy := spec
	tx.writes = append(tx.writes, server.TxnWriteOp{Op: "patch", Table: table, ID: id, Spec: &specCopy})
	tx.local[key] = next
	return nil
}

// Delete buffers a delete.
func (tx *Tx) Delete(table, id string) {
	key := server.RecordKey(table, id)
	tx.writes = append(tx.writes, server.TxnWriteOp{Op: "delete", Table: table, ID: id})
	tx.local[key] = nil
}

// Rollback aborts the transaction from inside the closure.
func (tx *Tx) Rollback() error { return errRollback }

// TxnOptions tunes transaction execution.
type TxnOptions struct {
	// MaxRetries bounds commit retries on conflicts (default 5).
	MaxRetries int
}

// Transaction runs fn optimistically: on a commit conflict the read set is
// invalidated client-side (so retried reads revalidate) and fn runs again,
// up to MaxRetries times.
func (c *Client) Transaction(fn func(tx *Tx) error) error {
	return c.TransactionWith(fn, TxnOptions{})
}

// TransactionWith runs fn with explicit options.
func (c *Client) TransactionWith(fn func(tx *Tx) error, opts TxnOptions) error {
	retries := opts.MaxRetries
	if retries <= 0 {
		retries = 5
	}
	var lastConflicts []string
	for attempt := 0; attempt <= retries; attempt++ {
		tx := &Tx{
			c:     c,
			reads: map[string]int64{},
			local: map[string]*document.Document{},
		}
		if err := fn(tx); err != nil {
			if errors.Is(err, errRollback) {
				return nil
			}
			return err
		}
		res, err := c.commit(server.TxnRequest{Reads: tx.reads, Writes: tx.writes})
		if err != nil {
			return err
		}
		if res.Committed {
			// Committed writes are read back through the origin, like every
			// other write of the session's.
			for key := range tx.local {
				if table, id, ok := server.SplitRecordKey(key); ok {
					c.wrote(table, id, 0, nil)
				}
			}
			return nil
		}
		// Conflict: the cached copies of the conflicting records are stale,
		// and their next reads revalidate.
		lastConflicts = res.Conflicts
		for _, key := range res.Conflicts {
			if table, id, ok := server.SplitRecordKey(key); ok {
				c.wrote(table, id, 0, nil)
			}
		}
	}
	return fmt.Errorf("%w (conflicts: %v)", ErrTxnAborted, lastConflicts)
}

func (c *Client) commit(req server.TxnRequest) (server.TxnResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return server.TxnResult{}, err
	}
	resp, err := c.do(c.http, http.MethodPost, "/v1/transaction", body, false, "", nil)
	if err != nil {
		return server.TxnResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		return server.TxnResult{}, decodeError(resp)
	}
	var res server.TxnResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return server.TxnResult{}, err
	}
	return res, nil
}
