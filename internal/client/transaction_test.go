package client

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/query"
	"quaestor/internal/store"
)

func TestTransactionCommit(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, nil)
	if err := c.Insert("posts", document.New("acct", map[string]any{"balance": 100})); err != nil {
		t.Fatal(err)
	}
	err := c.Transaction(func(tx *Tx) error {
		doc, err := tx.Read("posts", "acct")
		if err != nil {
			return err
		}
		bal, _ := doc.Get("balance")
		return tx.Update("posts", "acct", store.UpdateSpec{
			Set: map[string]any{"balance": bal.(int64) - 30},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadWith("posts", "acct", ReadOptions{Consistency: Strong})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("balance"); v != int64(70) {
		t.Errorf("balance = %v, want 70", v)
	}
}

func TestTransactionReadsOwnUncommittedWrites(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, nil)
	if err := c.Insert("posts", document.New("doc", map[string]any{"n": 1})); err != nil {
		t.Fatal(err)
	}
	err := c.Transaction(func(tx *Tx) error {
		if err := tx.Update("posts", "doc", store.UpdateSpec{Set: map[string]any{"n": 5}}); err != nil {
			return err
		}
		doc, err := tx.Read("posts", "doc")
		if err != nil {
			return err
		}
		if v, _ := doc.Get("n"); v != int64(5) {
			return fmt.Errorf("uncommitted write invisible: n = %v", v)
		}
		tx.Put("posts", document.New("fresh", map[string]any{"created": true}))
		doc, err = tx.Read("posts", "fresh")
		if err != nil {
			return err
		}
		if v, _ := doc.Get("created"); v != true {
			return fmt.Errorf("buffered put invisible")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransactionConflictRetries(t *testing.T) {
	s := newStack(t, nil)
	c1 := s.dial(t, nil)
	c2 := s.dial(t, nil)
	if err := c1.Insert("posts", document.New("ctr", map[string]any{"n": 0})); err != nil {
		t.Fatal(err)
	}
	attempts := 0
	err := c1.Transaction(func(tx *Tx) error {
		attempts++
		doc, err := tx.Read("posts", "ctr")
		if err != nil {
			return err
		}
		if attempts == 1 {
			// A competing write lands between read and commit.
			if _, err := c2.Update("posts", "ctr", store.UpdateSpec{Set: map[string]any{"n": 100}}); err != nil {
				return err
			}
		}
		n, _ := doc.Get("n")
		return tx.Update("posts", "ctr", store.UpdateSpec{Set: map[string]any{"n": n.(int64) + 1}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Errorf("expected a conflict retry, attempts = %d", attempts)
	}
	got, err := c1.ReadWith("posts", "ctr", ReadOptions{Consistency: Strong})
	if err != nil {
		t.Fatal(err)
	}
	// The retried transaction read 100 and wrote 101 — the lost-update
	// anomaly is prevented.
	if v, _ := got.Get("n"); v != int64(101) {
		t.Errorf("n = %v, want 101", v)
	}
}

func TestTransactionConcurrentIncrementsSerialize(t *testing.T) {
	s := newStack(t, nil)
	seed := s.dial(t, nil)
	if err := seed.Insert("posts", document.New("ctr", map[string]any{"n": 0})); err != nil {
		t.Fatal(err)
	}
	const workers, iters = 4, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.dial(t, nil)
			for i := 0; i < iters; i++ {
				err := c.TransactionWith(func(tx *Tx) error {
					doc, err := tx.Read("posts", "ctr")
					if err != nil {
						return err
					}
					n, _ := doc.Get("n")
					return tx.Update("posts", "ctr", store.UpdateSpec{Set: map[string]any{"n": n.(int64) + 1}})
				}, TxnOptions{MaxRetries: 100})
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got, err := seed.ReadWith("posts", "ctr", ReadOptions{Consistency: Strong})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("n"); v != int64(workers*iters) {
		t.Errorf("n = %v, want %d (lost updates!)", v, workers*iters)
	}
}

func TestTransactionRollback(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, nil)
	if err := c.Insert("posts", document.New("doc", map[string]any{"n": 1})); err != nil {
		t.Fatal(err)
	}
	err := c.Transaction(func(tx *Tx) error {
		if err := tx.Update("posts", "doc", store.UpdateSpec{Set: map[string]any{"n": 99}}); err != nil {
			return err
		}
		return tx.Rollback()
	})
	if err != nil {
		t.Fatalf("rollback should not surface an error: %v", err)
	}
	got, err := c.ReadWith("posts", "doc", ReadOptions{Consistency: Strong})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("n"); v != int64(1) {
		t.Errorf("rolled-back write applied: n = %v", v)
	}
}

func TestTransactionUserErrorPropagates(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, nil)
	boom := errors.New("boom")
	err := c.Transaction(func(tx *Tx) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("user error lost: %v", err)
	}
}

func TestTransactionDelete(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, nil)
	if err := c.Insert("posts", document.New("doc", map[string]any{"n": 1})); err != nil {
		t.Fatal(err)
	}
	err := c.Transaction(func(tx *Tx) error {
		if _, err := tx.Read("posts", "doc"); err != nil {
			return err
		}
		tx.Delete("posts", "doc")
		if _, err := tx.Read("posts", "doc"); err == nil {
			return errors.New("deleted record still readable inside txn")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadWith("posts", "doc", ReadOptions{Consistency: Strong}); err == nil {
		t.Error("record survived transactional delete")
	}
}

func TestSubscriptionStreams(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, nil)
	q := query.New("posts", query.Contains("tags", "x"))
	sub, err := s.srv.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := c.Insert("posts", document.New("p1", map[string]any{"tags": []any{"x"}})); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-sub.Events():
		if n.Doc.ID != "p1" {
			t.Errorf("subscription event = %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no subscription event")
	}
}

// TestTransactionOverlayAppliesEveryUpdateOp reads a transaction's own
// patch back under the store's update rules — Inc, Push and Pull included,
// not just Set and Unset — so the overlay agrees with what the commit
// stores.
func TestTransactionOverlayAppliesEveryUpdateOp(t *testing.T) {
	s := newStack(t, nil)
	c := s.dial(t, nil)
	if err := c.Insert("posts", document.New("doc", map[string]any{"n": 1, "tags": []any{"a", "z"}})); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"n": int64(5), "tags": []any{"a", "b"}}
	err := c.Transaction(func(tx *Tx) error {
		if err := tx.Update("posts", "doc", store.UpdateSpec{
			Inc:  map[string]float64{"n": 4},
			Push: map[string]any{"tags": "b"},
			Pull: map[string]any{"tags": "z"},
		}); err != nil {
			return err
		}
		doc, err := tx.Read("posts", "doc")
		if err != nil {
			return err
		}
		for path, w := range want {
			if got, _ := doc.Get(path); !document.DeepEqual(got, w) {
				return fmt.Errorf("overlay %s = %v, want %v", path, got, w)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.ReadWith("posts", "doc", ReadOptions{Consistency: Strong})
	if err != nil {
		t.Fatal(err)
	}
	for path, w := range want {
		if got, _ := doc.Get(path); !document.DeepEqual(got, w) {
			t.Errorf("committed %s = %v, want %v", path, got, w)
		}
	}
	// A spec the record cannot take fails in the overlay, before commit.
	err = c.Transaction(func(tx *Tx) error {
		return tx.Update("posts", "doc", store.UpdateSpec{Push: map[string]any{"n": 1}})
	})
	if !errors.Is(err, store.ErrBadUpdateSpec) {
		t.Errorf("push onto a number = %v, want ErrBadUpdateSpec", err)
	}
}

// TestTransactionTransportErrorIsNotAnAbsence keeps a failed exchange out
// of the read set: only the origin answering 404 proves a record absent,
// whatever the transport error's text says.
func TestTransactionTransportErrorIsNotAnAbsence(t *testing.T) {
	refused := errors.New("connection refused")
	c, err := Dial(&Options{DisableEBF: true, Transport: roundTripFunc(func(*http.Request) (*http.Response, error) {
		return nil, refused
	})})
	if err != nil {
		t.Fatal(err)
	}
	tx := &Tx{c: c, reads: map[string]int64{}, local: map[string]*document.Document{}}
	if _, err := tx.Read("orders", "o-404"); !errors.Is(err, refused) {
		t.Fatalf("read over a dead transport = %v", err)
	}
	if len(tx.reads) != 0 {
		t.Errorf("transport error recorded in the read set: %v", tx.reads)
	}

	// The origin's own 404 is an observed absence.
	s := newStack(t, nil)
	tx = &Tx{c: s.dial(t, nil), reads: map[string]int64{}, local: map[string]*document.Document{}}
	if _, err := tx.Read("posts", "missing"); err == nil {
		t.Fatal("read of a missing record succeeded")
	}
	if v, ok := tx.reads["posts/missing"]; !ok || v != 0 {
		t.Errorf("404 not recorded as absence: %v", tx.reads)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
