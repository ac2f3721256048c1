package commitlog

import (
	"errors"
	"fmt"
	"slices"
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
		ch, cancel := l.SubscribeTail(fmt.Sprintf("s%d", i)).Flatten(16)
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
	sub, err := l.Subscribe("replica", 4)
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
		if _, err := l.Subscribe("replica", from); !errors.Is(err, ErrSeqTruncated) {
			t.Fatalf("Subscribe(from=%d) err = %v, want ErrSeqTruncated", from, err)
		}
	}
	// The oldest gapless floor itself (and anything newer) still works.
	sub, err := l.Subscribe("replica", 12)
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
	if _, err := l2.Subscribe("replica", 50); !errors.Is(err, ErrSeqTruncated) {
		t.Fatalf("StartSeq floor err = %v, want ErrSeqTruncated", err)
	}
	if _, err := l2.Subscribe("replica", 100); err != nil {
		t.Fatalf("Subscribe at StartSeq: %v", err)
	}
}

// TestBlockPolicyNeverDrops: a subscriber that falls a full ring behind
// holds the appender back; it never loses an event.
func TestBlockPolicyNeverDrops(t *testing.T) {
	l := NewLog(&Options{Ring: 4})
	var mu sync.Mutex
	var got []Event
	done := make(chan struct{})
	ch, _ := l.SubscribeTail("s").Flatten(2)
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

// TestReplayRing pins activation replay on the fan-out ring: a covered
// floor returns exactly that table's events after it, in order; a floor
// the ring overwrote is refused with ErrSeqTruncated rather than answered
// with the newest events it still holds.
func TestReplayRing(t *testing.T) {
	l := NewLog(&Options{Ring: 8})
	for s := uint64(1); s <= 10; s++ {
		e := ev(s)
		if s%2 == 0 {
			e.Table = "u"
		}
		l.Append([]Event{e})
	}
	// The ring retains seqs 3..10; the newest overwritten seq is 2.
	got, err := l.Replay("t", 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{5, 7, 9}; !slices.Equal(seqs(got), want) {
		t.Fatalf("Replay(t, 4) = %v, want seqs %v", seqs(got), want)
	}
	for _, e := range got {
		if e.Table != "t" {
			t.Fatalf("replay of t carries an event of %q", e.Table)
		}
	}
	if got, err := l.Replay("u", 2); err != nil || !slices.Equal(seqs(got), []uint64{4, 6, 8, 10}) {
		t.Fatalf("Replay(u, 2) = %v, %v; want seqs 4 6 8 10", seqs(got), err)
	}
	for _, floor := range []uint64{0, 1} {
		if got, err := l.Replay("t", floor); !errors.Is(err, ErrSeqTruncated) || got != nil {
			t.Fatalf("Replay(t, %d) = %v, %v; want ErrSeqTruncated", floor, seqs(got), err)
		}
	}
	if got, err := l.Replay("nope", 2); got != nil || err != nil {
		t.Errorf("unknown table replay = %v, %v; want nil, nil", got, err)
	}
}

// TestReplayEmptyGapAllocatesNothing: the common activation — nothing
// written between evaluating the query and installing it — costs no
// allocation, however full the ring is.
func TestReplayEmptyGapAllocatesNothing(t *testing.T) {
	l := NewLog(&Options{Ring: 64})
	for s := uint64(1); s <= 100; s++ {
		l.Append([]Event{ev(s)})
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := l.Replay("t", 100); got != nil || err != nil {
			t.Fatalf("empty gap replay = %v, %v", got, err)
		}
	})
	if allocs != 0 {
		t.Errorf("empty gap replay allocates %v times, want 0", allocs)
	}
}

func TestStatsLagAndLatency(t *testing.T) {
	l := NewLog(&Options{Ring: 64})
	sub := l.SubscribeTail("s")
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
	sub := l.SubscribeTail("s")
	l.Close()
	if _, ok := <-sub.Events(); ok {
		t.Error("subscription channel open after log close")
	}
	<-sub.Done()
	// Subscribing to a closed log yields a closed subscription.
	sub2 := l.SubscribeTail("late")
	if _, ok := <-sub2.Events(); ok {
		t.Error("subscription on closed log should be closed")
	}
	// Appending to a closed log is a no-op.
	l.Append([]Event{ev(1)})
	if l.Stats().LastSeq != 0 {
		t.Error("append after close changed state")
	}
}

// TestRingAfter pins the activation-replay lookup on the fan-out ring:
// the events newer than the floor, oldest first, in a slice sized to
// exactly that many — or ErrSeqTruncated when the ring no longer covers
// the floor.
func TestRingAfter(t *testing.T) {
	fill := func(capacity int, seqs ...uint64) *Log {
		l := NewLog(&Options{Ring: capacity})
		for _, s := range seqs {
			l.Append([]Event{ev(s)})
		}
		return l
	}
	// A snapshot import's diff shares its floor: synthetic events at 7.
	synthetic := func(truncate bool) *Log {
		l := fill(8, 1, 2)
		if truncate {
			l.Truncate(7)
		}
		for i := 0; i < 3; i++ {
			e := ev(7)
			e.Synthetic = true
			e.After = document.New(fmt.Sprintf("s%d", i), nil)
			l.Append([]Event{e})
		}
		l.Append([]Event{ev(8)})
		return l
	}

	cases := []struct {
		name      string
		l         *Log
		floor     uint64
		want      []uint64
		truncated bool
	}{
		{"empty ring", fill(4), 0, nil, false},
		{"partly filled", fill(8, 1, 2, 3), 1, []uint64{2, 3}, false},
		{"wrapped ring", fill(4, 1, 2, 3, 4, 5, 6), 4, []uint64{5, 6}, false},
		{"wrapped ring, floor at the horizon", fill(4, 1, 2, 3, 4, 5, 6), 2, []uint64{3, 4, 5, 6}, false},
		{"wrapped ring, floor older than the ring", fill(4, 1, 2, 3, 4, 5, 6), 1, nil, true},
		{"floor equals newest", fill(4, 1, 2, 3, 4, 5, 6), 6, nil, false},
		{"floor beyond newest", fill(4, 1, 2, 3), 99, nil, false},
		{"log opened after recovery, floor before it", NewLog(&Options{Ring: 4, StartSeq: 10}), 9, nil, true},
		{"shared seq, floor below", synthetic(false), 2, []uint64{7, 7, 7, 8}, false},
		{"shared seq, floor at it", synthetic(false), 7, []uint64{8}, false},
		{"import truncated below the floor", synthetic(true), 2, nil, true},
		{"import truncated, floor at it", synthetic(true), 7, []uint64{8}, false},
	}
	for _, tc := range cases {
		got, err := tc.l.Replay("t", tc.floor)
		if tc.truncated != errors.Is(err, ErrSeqTruncated) {
			t.Errorf("%s: err = %v, want truncated %v", tc.name, err, tc.truncated)
			continue
		}
		if cap(got) != len(got) {
			t.Errorf("%s: cap %d != len %d", tc.name, cap(got), len(got))
		}
		if !slices.Equal(seqs(got), tc.want) {
			t.Errorf("%s: got seqs %v, want %v", tc.name, seqs(got), tc.want)
		}
	}
	if got, _ := synthetic(false).Replay("t", 2); got[0].After.ID != "s0" || got[2].After.ID != "s2" {
		t.Errorf("events sharing a seq out of order: %s … %s", got[0].After.ID, got[2].After.ID)
	}
}

func seqs(evs []Event) []uint64 {
	var out []uint64
	for _, e := range evs {
		out = append(out, e.Seq)
	}
	return out
}

// units appends the units of the given lengths, numbering events from
// *next on.
func units(l *Log, next *uint64, lengths ...int) {
	us := make([][]Event, len(lengths))
	for i, n := range lengths {
		for range n {
			*next++
			us[i] = append(us[i], ev(*next))
		}
	}
	l.Append(us...)
}

// collectBatches gathers every batch of sub until its channel closes.
func collectBatches(sub *Subscription) <-chan [][]Event {
	out := make(chan [][]Event, 1)
	go func() {
		var got [][]Event
		for b := range sub.Events() {
			got = append(got, b)
		}
		out <- got
	}()
	return out
}

// TestUnitsArriveWhole: a unit — one Append argument — reaches a
// subscriber inside one batch with contiguous Seqs, also when it is
// longer than batchMax, and a batch never ends mid-unit.
func TestUnitsArriveWhole(t *testing.T) {
	l := NewLog(&Options{Ring: 4096})
	sub := l.SubscribeTail("s")
	got := collectBatches(sub)
	lengths := []int{1, 100, 3, batchMax + 44, 1, 1, 255, 2, 100}
	var next uint64
	for i, n := range lengths {
		if i%3 == 0 {
			units(l, &next, n) // one unit per call
		} else {
			units(l, &next, n, 1) // several units per call
		}
	}
	l.Close()
	ends := map[uint64]bool{} // Seq of each unit's last event
	var seq uint64
	for i, n := range lengths {
		seq += uint64(n)
		ends[seq] = true
		if i%3 != 0 {
			seq++
			ends[seq] = true
		}
	}
	var want uint64 = 1
	for _, b := range <-got {
		if len(b) > batchMax && slices.ContainsFunc(b[:len(b)-1], func(e Event) bool { return ends[e.Seq] }) {
			t.Errorf("batch of %d events (seqs %d..%d) is longer than %d but not one unit", len(b), b[0].Seq, b[len(b)-1].Seq, batchMax)
		}
		if !ends[b[len(b)-1].Seq] {
			t.Errorf("batch ends at seq %d, inside a unit", b[len(b)-1].Seq)
		}
		for _, e := range b {
			if e.Seq != want {
				t.Fatalf("seq %d, want %d", e.Seq, want)
			}
			want++
		}
	}
	if want != seq+1 {
		t.Fatalf("delivered through seq %d, want %d", want-1, seq)
	}
}

// TestUnitLongerThanRing: a unit the ring cannot hold whole goes out in
// pieces instead of stalling its appender, to a subscriber that is
// caught up and to one that is a full ring behind.
func TestUnitLongerThanRing(t *testing.T) {
	l := NewLog(&Options{Ring: 8})
	a, b := l.SubscribeTail("a"), l.SubscribeTail("b")
	gotA, gotB := collectBatches(a), collectBatches(b)
	var next uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		units(l, &next, 3, 50, 2, 9, 1)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("appending a unit longer than the ring stalled")
	}
	l.Close()
	for name, got := range map[string]<-chan [][]Event{"a": gotA, "b": gotB} {
		var all []Event
		for _, batch := range <-got {
			all = append(all, batch...)
		}
		if len(all) != 65 {
			t.Fatalf("%s received %d events, want 65", name, len(all))
		}
		for i, e := range all {
			if e.Seq != uint64(i+1) {
				t.Fatalf("%s: event %d has seq %d", name, i, e.Seq)
			}
		}
	}
}
