package server

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"

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

// Commit validates and applies a transaction. On conflict nothing is
// applied and the conflicting keys are reported so clients can retry. A
// write the server would refuse on its own refuses the whole transaction
// before anything is written (see dryRun). Otherwise the writes commit
// through cluster.Router.Apply as one unit per shard, and within a shard
// that unit is what everything downstream sees as one: a reader (a record
// read, a query, an SSE feed) observes all of it or none of it, its
// events take contiguous Seqs and reach every commit-log subscriber —
// InvaliDB, replicas — in one batch, and on a durable store its records
// go to the WAL as one group (one write call, one fsync, one Wait). A
// unit the store refuses at apply time (a non-transactional write
// changed a record after the dry run so that a patch no longer fits it)
// leaves its shard untouched. What is not one unit: a transaction across
// shards commits shard by shard, so a refusal on a later shard leaves the
// earlier shards' writes in place; and a crash can leave a prefix of a
// unit in the WAL, which recovery replays record by record (there is no
// commit marker yet). Record-level invalidation, the TTL estimator's
// write rates and the EBF are fed once per transaction, after txnMu is
// released, for every write readers can see — also when the transaction
// failed after some shard committed, or after its WAL group failed;
// query-level invalidation arrives from InvaliDB.
func (s *Server) Commit(req TxnRequest) (TxnResult, error) {
	res, writes, err := s.commit(req)
	keys := make([]string, 0, len(writes))
	for i := range writes {
		if writes[i].After != nil { // a delete that found nothing wrote nothing
			keys = append(keys, RecordKey(writes[i].Table, writes[i].ID))
		}
	}
	s.afterWrites(keys...)
	return res, err
}

// commit is Commit's serialized part: it validates the read set, dry-runs
// the writes and applies them under txnMu. It returns the writes it gave
// Router.Apply, whose After marks those readers can see, whether or not
// the apply succeeded.
func (s *Server) commit(req TxnRequest) (TxnResult, []store.Write, error) {
	s.txnMu.Lock()
	defer s.txnMu.Unlock()

	var conflicts []string
	for key, readVersion := range req.Reads {
		table, id, ok := SplitRecordKey(key)
		if !ok {
			return TxnResult{}, nil, fmt.Errorf("server: malformed read-set key %q", key)
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
			return TxnResult{}, nil, err
		case doc.Version != readVersion:
			conflicts = append(conflicts, key)
		}
	}
	// Writes to records the transaction also read are already covered; a
	// write-write race with a concurrent commit is excluded by txnMu.
	if len(conflicts) > 0 {
		return TxnResult{Conflicts: conflicts}, nil, nil
	}
	if err := s.dryRun(req.Writes); err != nil {
		return TxnResult{}, nil, err
	}
	writes := make([]store.Write, len(req.Writes))
	for i, w := range req.Writes {
		writes[i] = store.Write{Table: w.Table, ID: w.ID}
		switch w.Op {
		case "put":
			writes[i].Kind, writes[i].Doc = store.WritePut, w.Doc
		case "patch":
			writes[i].Kind, writes[i].Spec = store.WriteUpdate, *w.Spec
		case "delete":
			writes[i].Kind = store.WriteDelete // of an absent record: a no-op
		}
	}
	if err := s.router.Apply(writes); err != nil {
		return TxnResult{}, writes, fmt.Errorf("server: applying transaction: %w", err)
	}
	return TxnResult{Committed: true}, writes, nil
}

// dryRun refuses, before anything is written, every write the server
// would refuse on its own: an unknown op (400), a put without a document
// (400) or that the table's schema rejects (422), a patch without a spec
// (400), of a record that is not there (404), whose IfVersion the stored
// record fails (412), or whose spec does not fit the record (400). A
// patch is tried on a copy of the record as the transaction's earlier
// writes leave it; a conditional patch of a record the transaction itself
// wrote is checked only when it is applied. Each put's document gets its
// id here and is validated only here.
func (s *Server) dryRun(writes []TxnWriteOp) error {
	type record struct{ table, id string }
	var after map[record]*document.Document // the transaction's writes so far; nil: deleted
	if slices.ContainsFunc(writes, func(w TxnWriteOp) bool { return w.Op == "patch" }) {
		after = make(map[record]*document.Document, len(writes)) // only a patch reads it
	}
	for _, w := range writes {
		rec := record{w.Table, w.ID}
		switch w.Op {
		case "put":
			if w.Doc == nil {
				return badRequest("server: put without document for %s/%s", w.Table, w.ID)
			}
			w.Doc.ID = w.ID
			if err := s.validateDoc(w.Table, w.Doc); err != nil {
				return err
			}
			if after != nil {
				after[rec] = w.Doc
			}
		case "patch":
			if w.Spec == nil {
				return badRequest("server: patch without spec for %s/%s", w.Table, w.ID)
			}
			prev, written := after[rec]
			if !written {
				var err error
				if prev, err = s.router.Get(w.Table, w.ID); err != nil {
					return err
				}
				if v := w.Spec.IfVersion; v != 0 && prev.Version != v {
					return fmt.Errorf("%w: %s/%s: have %d, want %d", store.ErrVersionCheck, w.Table, w.ID, prev.Version, v)
				}
			}
			if prev == nil {
				return fmt.Errorf("%w: %s/%s", store.ErrNotFound, w.Table, w.ID)
			}
			next := prev.Clone()
			if err := store.ApplySpec(next, *w.Spec); err != nil {
				return fmt.Errorf("server: patch %s/%s: %w", w.Table, w.ID, err)
			}
			after[rec] = next
		case "delete":
			if after != nil {
				after[rec] = nil
			}
		default:
			return badRequest("server: unknown transactional op %q", w.Op)
		}
	}
	return nil
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
