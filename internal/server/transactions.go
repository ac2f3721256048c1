package server

import (
	"errors"
	"fmt"
	"net/http"

	"quaestor/internal/document"
	"quaestor/internal/store"
)

// This file implements Quaestor's opt-in ACID transactions (Section 3.2):
// optimistic transactions with backward-oriented concurrency control
// (BOCC). Clients collect their read sets — reads may be served from any
// web cache — and submit them with buffered writes at commit time. The
// server validates that every read version is still current; a mismatch
// means the transaction either raced a concurrent commit or read a stale
// cached copy, and it aborts. "The key idea is to collect read sets of
// transactions in the client and validate them at commit time to detect
// both violations of serializability and stale reads."

// ErrTxnConflict is returned when commit validation fails.
var ErrTxnConflict = errors.New("server: transaction conflict")

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

// Commit validates and applies a transaction. On success every buffered
// write is applied (each triggering normal record- and query-level
// invalidation); on conflict nothing is applied and the conflicting keys
// are reported so clients can retry.
func (s *Server) Commit(req TxnRequest) (TxnResult, error) {
	s.txnMu.Lock()
	defer s.txnMu.Unlock()

	var conflicts []string
	for key, readVersion := range req.Reads {
		table, id, ok := splitRecordKey(key)
		if !ok {
			return TxnResult{}, fmt.Errorf("server: malformed read-set key %q", key)
		}
		// Routed per record: validation reads hit the owning shard. The
		// process-wide txnMu still excludes concurrent commits, so BOCC
		// semantics hold across shards.
		doc, err := s.router.Get(table, id)
		switch {
		case errors.Is(err, store.ErrNotFound):
			if readVersion != 0 {
				conflicts = append(conflicts, key) // read something now deleted
			}
		case err != nil:
			return TxnResult{}, err
		case doc.Version != readVersion:
			conflicts = append(conflicts, key)
		}
	}
	// Writes to records the transaction also read are already covered; a
	// write-write race with a concurrent commit is excluded by txnMu.
	if len(conflicts) > 0 {
		return TxnResult{Conflicts: conflicts}, nil
	}
	for _, w := range req.Writes {
		var err error
		switch w.Op {
		case "put":
			if w.Doc == nil {
				return TxnResult{}, fmt.Errorf("server: put without document for %s/%s", w.Table, w.ID)
			}
			w.Doc.ID = w.ID
			err = s.Put(w.Table, w.Doc)
		case "patch":
			if w.Spec == nil {
				return TxnResult{}, fmt.Errorf("server: patch without spec for %s/%s", w.Table, w.ID)
			}
			_, err = s.Update(w.Table, w.ID, *w.Spec)
		case "delete":
			err = s.Delete(w.Table, w.ID)
			if errors.Is(err, store.ErrNotFound) {
				err = nil // deleting an absent record is a no-op inside a txn
			}
		default:
			return TxnResult{}, fmt.Errorf("server: unknown transactional op %q", w.Op)
		}
		if err != nil {
			// Partial application cannot happen through validation races
			// (txnMu), only through infrastructure errors; surface them.
			return TxnResult{}, fmt.Errorf("server: applying %s %s/%s: %w", w.Op, w.Table, w.ID, err)
		}
	}
	return TxnResult{Committed: true}, nil
}

func splitRecordKey(key string) (table, id string, ok bool) {
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

// handleTxn serves POST /v1/transaction.
func (s *Server) handleTxn(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &httpError{http.StatusMethodNotAllowed, "POST only"})
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	req, err := DecodeTxnRequest(body)
	if err != nil {
		writeError(w, bodyError(err, "transaction"))
		return
	}
	res, err := s.Commit(req)
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
