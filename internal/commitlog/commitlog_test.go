package commitlog

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"quaestor/internal/document"
)

func ev(seq uint64) Event {
	return Event{Seq: seq, Table: "t", Op: OpInsert, After: document.New(fmt.Sprintf("d%d", seq), nil)}
}

// drainAll collects every event from a flat subscription until its
// channel closes.
func drainAll(ch <-chan Event, out *[]Event, mu *sync.Mutex, done chan struct{}) {
	defer close(done)
	for e := range ch {
		mu.Lock()
		*out = append(*out, e)
		mu.Unlock()
	}
}

func TestFanOutDeliversInOrderToAllSubscribers(t *testing.T) {
	l := NewLog(&Options{Ring: 64})
	const subs, events = 4, 500
	var mu sync.Mutex
	got := make([][]Event, subs)
	dones := make([]chan struct{}, subs)
	cancels := make([]func(), subs)
	for i := 0; i < subs; i++ {
		ch, cancel := l.SubscribeTail(fmt.Sprintf("s%d", i), Block).Flatten(16)
		dones[i] = make(chan struct{})
		cancels[i] = cancel
		go drainAll(ch, &got[i], &mu, dones[i])
	}
	for s := uint64(1); s <= events; s++ {
		l.Append([]Event{ev(s)})
	}
	l.Close()
	for i := range dones {
		<-dones[i]
	}
	for i := 0; i < subs; i++ {
		mu.Lock()
		evs := got[i]
		mu.Unlock()
		if len(evs) != events {
			t.Fatalf("subscriber %d got %d events, want %d", i, len(evs), events)
		}
		for j, e := range evs {
			if e.Seq != uint64(j+1) {
				t.Fatalf("subscriber %d event %d has seq %d", i, j, e.Seq)
			}
		}
	}
	_ = cancels
}

func TestSubscribeFromSeqCatchesUpThroughRing(t *testing.T) {
	l := NewLog(&Options{Ring: 64})
	for s := uint64(1); s <= 10; s++ {
		l.Append([]Event{ev(s)})
	}
	sub, err := l.Subscribe("replica", 4, Block)
	if err != nil {
		t.Fatal(err)
	}
	batch := <-sub.Events()
	if len(batch) != 6 {
		t.Fatalf("catch-up batch has %d events, want 6 (seqs 5..10): %v", len(batch), batch)
	}
	for i, e := range batch {
		if e.Seq != uint64(5+i) {
			t.Fatalf("catch-up event %d has seq %d", i, e.Seq)
		}
	}
	// The live tail follows the catch-up.
	l.Append([]Event{ev(11)})
	batch = <-sub.Events()
	if len(batch) != 1 || batch[0].Seq != 11 {
		t.Fatalf("live batch = %v", batch)
	}
	sub.Cancel()
	if _, ok := <-sub.Events(); ok {
		// A pending batch may still arrive; the channel must close after.
		if _, ok := <-sub.Events(); ok {
			t.Error("cancelled subscription channel still open")
		}
	}
}

// TestSubscribeTruncatedFloorReturnsTypedError is the regression test for
// the silent-gap bug: Subscribe with a floor older than the ring used to
// start at the ring head, silently skipping the evicted events. A replica
// must instead receive ErrSeqTruncated so it knows to fall back to WAL
// segment shipping (or a snapshot bootstrap).
func TestSubscribeTruncatedFloorReturnsTypedError(t *testing.T) {
	l := NewLog(&Options{Ring: 8})
	for s := uint64(1); s <= 20; s++ {
		l.Append([]Event{ev(s)})
	}
	// Ring of 8 retains seqs 13..20; the newest evicted seq is 12.
	if st := l.Stats(); st.TruncSeq != 12 {
		t.Fatalf("TruncSeq = %d, want 12", st.TruncSeq)
	}
	for _, from := range []uint64{0, 5, 11} {
		if _, err := l.Subscribe("replica", from, Block); !errors.Is(err, ErrSeqTruncated) {
			t.Fatalf("Subscribe(from=%d) err = %v, want ErrSeqTruncated", from, err)
		}
	}
	// The oldest gapless floor itself (and anything newer) still works.
	sub, err := l.Subscribe("replica", 12, Block)
	if err != nil {
		t.Fatalf("Subscribe(from=12): %v", err)
	}
	batch := <-sub.Events()
	if len(batch) == 0 || batch[0].Seq != 13 {
		t.Fatalf("catch-up from 12 starts at %v, want seq 13", batch)
	}
	sub.Cancel()

	// A log that tailed from a recovered store (StartSeq > 0) refuses
	// floors below its start even before anything is evicted: those events
	// predate the log and were never retained.
	l2 := NewLog(&Options{Ring: 64, StartSeq: 100})
	if _, err := l2.Subscribe("replica", 50, Block); !errors.Is(err, ErrSeqTruncated) {
		t.Fatalf("StartSeq floor err = %v, want ErrSeqTruncated", err)
	}
	if _, err := l2.Subscribe("replica", 100, Block); err != nil {
		t.Fatalf("Subscribe at StartSeq: %v", err)
	}
}

func TestDropOldestCountsGapAndKeepsOrder(t *testing.T) {
	l := NewLog(&Options{Ring: 8})
	sub := l.SubscribeTail("slow", DropOldest)
	// Do not read: the ring laps the subscriber.
	for s := uint64(1); s <= 100; s++ {
		l.Append([]Event{ev(s)})
	}
	var got []Event
	deadline := time.After(5 * time.Second)
	for len(got) == 0 || got[len(got)-1].Seq < 100 {
		select {
		case batch := <-sub.Events():
			got = append(got, batch...)
		case <-deadline:
			t.Fatalf("timed out; got %d events", len(got))
		}
	}
	last := uint64(0)
	for _, e := range got {
		if e.Seq <= last {
			t.Fatalf("drop subscriber saw non-increasing seq %d after %d", e.Seq, last)
		}
		last = e.Seq
	}
	st := l.Stats()
	if len(st.Subscribers) != 1 {
		t.Fatalf("stats subscribers = %+v", st.Subscribers)
	}
	ss := st.Subscribers[0]
	if ss.Dropped == 0 {
		t.Errorf("expected drops, got %+v", ss)
	}
	if ss.Dropped+ss.Delivered != 100 {
		t.Errorf("dropped %d + delivered %d != 100", ss.Dropped, ss.Delivered)
	}
}

func TestBlockPolicyNeverDrops(t *testing.T) {
	l := NewLog(&Options{Ring: 4})
	var mu sync.Mutex
	var got []Event
	done := make(chan struct{})
	ch, _ := l.SubscribeTail("s", Block).Flatten(2)
	go func() {
		defer close(done)
		for e := range ch {
			time.Sleep(100 * time.Microsecond) // slow consumer
			mu.Lock()
			got = append(got, e)
			mu.Unlock()
		}
	}()
	const events = 200
	for s := uint64(1); s <= events; s++ {
		l.Append([]Event{ev(s)}) // must block rather than lap the subscriber
	}
	// Wait for the pump to drain before closing, so nothing is dropped at
	// shutdown.
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == events {
			break
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
	<-done
	if len(got) != events {
		t.Fatalf("blocking subscriber got %d events, want %d", len(got), events)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestReplayRing(t *testing.T) {
	l := NewLog(&Options{Ring: 64, ReplayPerTable: 4})
	for s := uint64(1); s <= 10; s++ {
		l.Append([]Event{ev(s)})
	}
	replay := l.Replay("t", 0)
	if len(replay) != 4 || replay[0].Seq != 7 || replay[3].Seq != 10 {
		t.Fatalf("replay = %v", replay)
	}
	if got := l.Replay("t", 8); len(got) != 2 {
		t.Fatalf("replay after 8 = %v", got)
	}
	if got := l.Replay("nope", 0); got != nil {
		t.Error("unknown table replay should be nil")
	}
}

func TestStatsLagAndLatency(t *testing.T) {
	l := NewLog(&Options{Ring: 64})
	sub := l.SubscribeTail("s", Block)
	for s := uint64(1); s <= 3; s++ {
		l.Append([]Event{ev(s)})
	}
	batch := <-sub.Events()
	if len(batch) == 0 {
		t.Fatal("no batch")
	}
	// Poll until the pump records the delivery.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := l.Stats()
		if len(st.Subscribers) == 1 && st.Subscribers[0].Delivered > 0 {
			if st.LastSeq != 3 || st.Published != 3 {
				t.Fatalf("stats = %+v", st)
			}
			if st.Latency.Batches == 0 {
				t.Error("no latency samples")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pump never recorded delivery")
		}
		time.Sleep(time.Millisecond)
	}
	sub.Cancel()
}

func TestCloseOnSubscribedLogClosesChannels(t *testing.T) {
	l := NewLog(nil)
	sub := l.SubscribeTail("s", Block)
	l.Close()
	if _, ok := <-sub.Events(); ok {
		t.Error("subscription channel open after log close")
	}
	<-sub.Done()
	// Subscribing to a closed log yields a closed subscription.
	sub2 := l.SubscribeTail("late", Block)
	if _, ok := <-sub2.Events(); ok {
		t.Error("subscription on closed log should be closed")
	}
	// Appending to a closed log is a no-op.
	l.Append([]Event{ev(1)})
	if l.Stats().LastSeq != 0 {
		t.Error("append after close changed state")
	}
}

// TestRingAfter pins the activation-replay lookup: the events newer than
// seq, oldest first, in a slice sized to exactly that many — an
// activation with nothing to replay must not pay for the ring's capacity.
func TestRingAfter(t *testing.T) {
	fill := func(capacity int, seqs ...uint64) *ring {
		r := newRing(capacity)
		for _, s := range seqs {
			r.push(ev(s))
		}
		return r
	}
	synthetic := fill(8, 1, 2)
	for i := 0; i < 3; i++ { // a snapshot import's diff shares its floor
		e := ev(7)
		e.Synthetic = true
		e.After = document.New(fmt.Sprintf("s%d", i), nil)
		synthetic.push(e)
	}
	synthetic.push(ev(8))

	cases := []struct {
		name string
		r    *ring
		seq  uint64
		want []uint64
	}{
		{"empty ring", fill(4), 0, nil},
		{"zero-capacity ring", fill(0, 1, 2), 0, nil},
		{"partly filled", fill(8, 1, 2, 3), 1, []uint64{2, 3}},
		{"wrapped ring", fill(4, 1, 2, 3, 4, 5, 6), 4, []uint64{5, 6}},
		{"wrapped ring, seq older than the ring", fill(4, 1, 2, 3, 4, 5, 6), 1, []uint64{3, 4, 5, 6}},
		{"seq equals newest", fill(4, 1, 2, 3, 4, 5, 6), 6, nil},
		{"seq beyond newest", fill(4, 1, 2, 3), 99, nil},
		{"shared seq, floor below", synthetic, 2, []uint64{7, 7, 7, 8}},
		{"shared seq, floor at it", synthetic, 7, []uint64{8}},
	}
	for _, tc := range cases {
		got := tc.r.after(tc.seq)
		if cap(got) != len(got) {
			t.Errorf("%s: cap %d != len %d", tc.name, cap(got), len(got))
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %d events, want %d", tc.name, len(got), len(tc.want))
			continue
		}
		for i, e := range got {
			if e.Seq != tc.want[i] {
				t.Errorf("%s: event %d has seq %d, want %d", tc.name, i, e.Seq, tc.want[i])
			}
		}
	}
	if got := synthetic.after(2); got[0].After.ID != "s0" || got[2].After.ID != "s2" {
		t.Errorf("events sharing a seq out of order: %s … %s", got[0].After.ID, got[2].After.ID)
	}
}
