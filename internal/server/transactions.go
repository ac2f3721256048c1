package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"quaestor/internal/document"
	"quaestor/internal/store"
)

// This file implements Quaestor's opt-in ACID transactions (Section 3.2):
// optimistic transactions with backward-oriented concurrency control
// (BOCC). Clients collect their read sets — reads may be served from any
// web cache — and submit them with buffered writes at commit time. The
// store validates that every read version is still current, under the
// same table locks as the writes (see Commit); a mismatch means the
// transaction either raced a concurrent write or read a stale cached
// copy, and it aborts. "The key idea is to collect read sets of
// transactions in the client and validate them at commit time to detect
// both violations of serializability and stale reads."

// TxnWriteOp is one buffered transactional write.
type TxnWriteOp struct {
	// Op is "put", "patch" or "delete".
	Op    string             `json:"op"`
	Table string             `json:"table"`
	ID    string             `json:"id"`
	Doc   *document.Document `json:"doc,omitempty"`
	Spec  *store.UpdateSpec  `json:"spec,omitempty"`
}

// TxnRequest is a commit submission.
type TxnRequest struct {
	// Reads maps "table/id" record keys to the version the transaction
	// observed (0 = observed as absent).
	Reads map[string]int64 `json:"reads"`
	// Writes are applied atomically iff validation succeeds.
	Writes []TxnWriteOp `json:"writes"`
}

// TxnResult reports the commit outcome.
type TxnResult struct {
	Committed bool `json:"committed"`
	// Conflicts lists the record keys whose versions changed since the
	// transaction read them.
	Conflicts []string `json:"conflicts,omitempty"`
}

// Commit checks each op's shape and the schema, then applies the
// transaction through cluster.Router.Apply with each read as a
// store.WriteCheck ahead of the writes: the store decides reads and writes
// once, under the table locks (README "Transactions"). A stale read
// refuses it with every stale key in Conflicts; a write the store refuses
// refuses it with an error. Either way nothing is written, on any shard.
func (s *Server) Commit(req TxnRequest) (TxnResult, error) {
	writes := make([]store.Write, 0, len(req.Reads)+len(req.Writes))
	for key, version := range req.Reads {
		table, id, ok := SplitRecordKey(key)
		if !ok {
			return TxnResult{}, badRequest("server: malformed read-set key %q", key)
		}
		writes = append(writes, store.Write{Kind: store.WriteCheck, Table: table, ID: id, Version: version})
	}
	for _, w := range req.Writes {
		sw := store.Write{Table: w.Table, ID: w.ID}
		switch w.Op {
		case "put":
			if w.Doc == nil {
				return TxnResult{}, badRequest("server: put without document for %s/%s", w.Table, w.ID)
			}
			w.Doc.ID = w.ID
			if err := s.validateDoc(w.Table, w.Doc); err != nil {
				return TxnResult{}, err
			}
			sw.Kind, sw.Doc = store.WritePut, w.Doc
		case "patch":
			if w.Spec == nil {
				return TxnResult{}, badRequest("server: patch without spec for %s/%s", w.Table, w.ID)
			}
			sw.Kind, sw.Spec = store.WriteUpdate, *w.Spec
		case "delete":
			sw.Kind = store.WriteDelete // of an absent record: a no-op
		default:
			return TxnResult{}, badRequest("server: unknown transactional op %q", w.Op)
		}
		writes = append(writes, sw)
	}
	var stale *store.ConflictError
	switch err := s.apply(writes); {
	case errors.As(err, &stale):
		return TxnResult{Conflicts: stale.Keys}, nil
	case err != nil:
		return TxnResult{}, fmt.Errorf("server: applying transaction: %w", err)
	}
	return TxnResult{Committed: true}, nil
}

// SplitRecordKey splits a RecordKey back into its table and id.
func SplitRecordKey(key string) (table, id string, ok bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			if i == 0 || i == len(key)-1 {
				return "", "", false
			}
			return key[:i], key[i+1:], true
		}
	}
	return "", "", false
}

// txnWrites recycles the write lists transactions are decoded into: a
// list is dead once its transaction has committed.
var txnWrites = sync.Pool{New: func() any { return new([]TxnWriteOp) }}

// maxPooledWrites keeps one huge transaction from pinning its list.
const maxPooledWrites = 4096

// handleTxn serves POST /v1/transaction.
func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &httpError{http.StatusMethodNotAllowed, "POST only"})
		return
	}
	wp := txnWrites.Get().(*[]TxnWriteOp)
	req := TxnRequest{Writes: *wp}
	err := decodeRequest(w, r, "transaction", func(dec *document.Decoder) error { return bindTxnRequest(dec, &req) })
	var res TxnResult
	if err == nil {
		res, err = s.Commit(req)
	}
	if cap(req.Writes) <= maxPooledWrites {
		clear(req.Writes[:cap(req.Writes)]) // the pooled list keeps no document alive
		*wp = req.Writes[:0]
		txnWrites.Put(wp)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusOK
	if !res.Committed {
		status = http.StatusConflict
	}
	writeJSON(w, status, res)
}
