package store

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quaestor/internal/document"
	"quaestor/internal/wal"
)

// seqCollector drains one subscription, checking global Seq order and
// per-key before/after chaining as events arrive.
type seqCollector struct {
	mu      sync.Mutex
	seqs    []uint64
	lastSeq uint64
	errs    []string
	// perKey tracks the last observed after-image version per live key.
	perKey map[string]int64
	// tombs holds the tombstone version per deleted key: a re-creation
	// must continue from it.
	tombs map[string]int64
	done  chan struct{}
}

func collectSeqs(ch <-chan ChangeEvent) *seqCollector {
	col := &seqCollector{perKey: map[string]int64{}, tombs: map[string]int64{}, done: make(chan struct{})}
	go func() {
		defer close(col.done)
		for ev := range ch {
			col.mu.Lock()
			col.observe(ev)
			col.mu.Unlock()
		}
	}()
	return col
}

func (col *seqCollector) failf(format string, args ...any) {
	if len(col.errs) < 20 {
		col.errs = append(col.errs, fmt.Sprintf(format, args...))
	}
}

// observe checks one event against the stream invariants. Caller holds mu.
func (col *seqCollector) observe(ev ChangeEvent) {
	if ev.Seq <= col.lastSeq {
		col.failf("seq %d delivered after %d — global order violated", ev.Seq, col.lastSeq)
	}
	col.lastSeq = ev.Seq
	col.seqs = append(col.seqs, ev.Seq)

	key := ev.Key()
	prev, live := col.perKey[key]
	switch ev.Op {
	case OpInsert:
		if ev.Before != nil {
			col.failf("seq %d: insert with pre-image", ev.Seq)
		}
		if live {
			col.failf("seq %d: insert of live key %s (v%d)", ev.Seq, key, prev)
		}
		if want := col.tombs[key] + 1; ev.After.Version != want {
			col.failf("seq %d: insert version %d, want %d (one past the key's tombstone)", ev.Seq, ev.After.Version, want)
		}
		col.perKey[key] = ev.After.Version
	case OpUpdate:
		if ev.Before == nil {
			col.failf("seq %d: update without pre-image", ev.Seq)
			return
		}
		if !live {
			col.failf("seq %d: update of dead key %s", ev.Seq, key)
		} else if ev.Before.Version != prev {
			col.failf("seq %d: update pre-image v%d, last after-image was v%d — per-key chain broken", ev.Seq, ev.Before.Version, prev)
		}
		if ev.After.Version != ev.Before.Version+1 {
			col.failf("seq %d: update v%d -> v%d", ev.Seq, ev.Before.Version, ev.After.Version)
		}
		col.perKey[key] = ev.After.Version
	case OpDelete:
		if !ev.Deleted || ev.Before == nil {
			col.failf("seq %d: malformed delete", ev.Seq)
			return
		}
		if !live {
			col.failf("seq %d: delete of dead key %s", ev.Seq, key)
		} else if ev.Before.Version != prev {
			col.failf("seq %d: delete pre-image v%d, last after-image was v%d", ev.Seq, ev.Before.Version, prev)
		}
		if ev.After.Version != ev.Before.Version+1 {
			col.failf("seq %d: tombstone v%d after v%d", ev.Seq, ev.After.Version, ev.Before.Version)
		}
		col.tombs[key] = ev.After.Version
		delete(col.perKey, key)
	}
}

func (col *seqCollector) last() uint64 {
	col.mu.Lock()
	defer col.mu.Unlock()
	return col.lastSeq
}

// TestPropertyOrderedFanoutUnderConcurrentWriters is the commit
// pipeline's core property: with 64 writers racing on a small key space
// (many same-key races) and a sequenced CreateIndex landing among them,
// every subscriber observes the complete change stream in strictly
// increasing Seq order with exact per-key before/after chaining — each
// event's pre-image is the previous event's after-image. Under the old
// unlock-then-publish protocol two racing same-key writes could reach a
// subscriber swapped; the stamp section makes the order deterministic in
// in-memory and durable mode alike. The wal-closed mode seals the log
// under the writers: writes past that point fail and publish nothing, and
// what subscribers saw up to it must still be an ordered, chained prefix
// that ends without anything waiting on the Seqs that never committed.
func TestPropertyOrderedFanoutUnderConcurrentWriters(t *testing.T) {
	const (
		writers = 64
		keys    = 24
	)
	opsEach := 60
	if testing.Short() {
		opsEach = 25
	}
	for _, mode := range []string{"memory", "durable-never", "durable-always", "wal-closed"} {
		t.Run(mode, func(t *testing.T) {
			opts := &Options{ChangeBuffer: 1 << 14}
			switch mode {
			case "durable-never", "wal-closed":
				opts.DataDir = t.TempDir()
				opts.Durability = Durability{Fsync: wal.FsyncNever}
			case "durable-always":
				opts.DataDir = t.TempDir()
				opts.Durability = Durability{Fsync: wal.FsyncAlways}
			}
			s, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.CreateTable("docs"); err != nil {
				t.Fatal(err)
			}

			cols := make([]*seqCollector, 3)
			for i := range cols {
				ch, cancel := s.SubscribeNamed(fmt.Sprintf("check-%d", i))
				defer cancel()
				cols[i] = collectSeqs(ch)
			}

			// afterWrites runs fn once a share of the writes has been
			// stamped, i.e. in the thick of the race.
			var wg sync.WaitGroup
			afterWrites := func(n int, fn func()) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for s.LastSeq() < uint64(n) {
						time.Sleep(50 * time.Microsecond)
					}
					fn()
				}()
			}
			afterWrites(writers*opsEach/8, func() {
				if err := s.CreateIndex("docs", "n"); err != nil && mode != "wal-closed" {
					t.Errorf("CreateIndex: %v", err)
				}
			})
			// In wal-closed mode each writer parks after its first quarter
			// of ops until the log is sealed, and the seal waits for half of
			// them to park: it lands mid-stream, racing the other half's
			// writes, and every writer has writes left to fail after it,
			// however the scheduler orders the goroutines.
			hold := func() {}
			if mode == "wal-closed" {
				sealed := make(chan struct{})
				var parked atomic.Int32
				hold = func() {
					parked.Add(1)
					<-sealed
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for parked.Load() < writers/2 {
						time.Sleep(50 * time.Microsecond)
					}
					s.wal.Close()
					close(sealed)
				}()
			}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					for op := 0; op < opsEach; op++ {
						if op == opsEach/4 {
							hold()
						}
						id := fmt.Sprintf("k%02d", r.Intn(keys))
						switch r.Intn(4) {
						case 0:
							_ = s.Insert("docs", document.New(id, map[string]any{"n": int64(op)}))
						case 1:
							_ = s.Put("docs", document.New(id, map[string]any{"n": int64(op)}))
						case 2:
							_, _ = s.Update("docs", id, UpdateSpec{Inc: map[string]float64{"n": 1}})
						case 3:
							_ = s.Delete("docs", id)
						}
					}
				}(int64(w + 1))
			}
			wg.Wait()

			// Every stamped Seq commits unless the log was sealed, so each
			// subscriber must eventually deliver the dense stream up to
			// LastSeq; a sealed log has published the prefix it committed
			// (Close drained the queue) and nothing after.
			want := s.LastSeq()
			if mode == "wal-closed" {
				want = s.PipelineStats().Stream.LastSeq
				if want == 0 || want >= s.LastSeq() {
					t.Fatalf("stream at seq %d, store at %d: the log was not sealed under load", want, s.LastSeq())
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for _, col := range cols {
				for col.last() < want && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}
			for i, col := range cols {
				col.mu.Lock()
				if col.lastSeq != want {
					t.Errorf("subscriber %d stalled at seq %d, want %d", i, col.lastSeq, want)
				}
				if uint64(len(col.seqs)) != want {
					t.Errorf("subscriber %d got %d events, want %d (gaps in the dense stream)", i, len(col.seqs), want)
				}
				for _, msg := range col.errs {
					t.Errorf("subscriber %d: %s", i, msg)
				}
				col.mu.Unlock()
			}
			if st := s.PipelineStats().Stream; st.LastSeq != want || st.Published != want {
				t.Errorf("stream reached seq %d with %d events published, want %d", st.LastSeq, st.Published, want)
			}
		})
	}
}
