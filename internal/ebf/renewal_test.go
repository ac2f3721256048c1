package ebf

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fingerprints returns the sorted fingerprints of keys.
func fingerprints(keys ...string) []uint64 {
	fps := make([]uint64, 0, len(keys))
	for _, k := range keys {
		fps = append(fps, Fingerprint(k))
	}
	slices.Sort(fps)
	return fps
}

func sortedRecent(snap Snapshot) []uint64 {
	fps := slices.Clone(snap.Recent)
	slices.Sort(fps)
	return fps
}

// flagKeys serves and then invalidates n fresh keys of table.
func flagKeys(p *Partitioned, table string, from, n int) (keys []string) {
	for i := from; i < from+n; i++ {
		key := fmt.Sprintf("%s/k%d", table, i)
		p.ReportRead(key, time.Minute)
		if !p.ReportWrite(key) {
			panic("a served key was not flagged")
		}
		keys = append(keys, key)
	}
	return keys
}

// TestCarryFlagLogCoverage pins when a positioned poll is covered and what
// it lists: exactly the keys flagged after the position, per table for a
// ?table= poll; nothing — rather than a part — once a partition's ring has
// overflowed or the list would exceed the budget; nothing for a position
// of another instance or ahead of this one.
func TestCarryFlagLogCoverage(t *testing.T) {
	c := newFakeClock()
	opts := &Options{Bits: 1 << 14, Hashes: 4, Clock: c.Now}
	p := NewPartitioned(opts)
	flagKeys(p, "posts", 0, 3)

	start := p.Snapshot()
	if start.Covered || start.At.Epoch == 0 || start.At.Cursor != 3 {
		t.Fatalf("first snapshot: covered %v at %+v, want uncovered at cursor 3 of a non-zero epoch", start.Covered, start.At)
	}
	if again := positioned(t, p, "", start.At); !again.Covered || len(again.Recent) != 0 || again.Since != 3 || again.At != start.At {
		t.Errorf("idle renewal: %+v, want covered from 3 with nothing flagged", again)
	}

	posts := flagKeys(p, "posts", 3, 4)
	users := flagKeys(p, "users", 0, 2)
	p.ReportWrite(posts[0]) // flagged twice: listed, whether once or twice
	if p.ReportWrite("users/never-served") {
		t.Fatal("a write with no copy outstanding was flagged")
	}
	agg := positioned(t, p, "", start.At)
	if !agg.Covered || !slices.Equal(slices.Compact(sortedRecent(agg)), fingerprints(append(posts, users...)...)) || agg.At.Cursor != 10 {
		t.Errorf("aggregate renewal: covered %v, %d fingerprints, cursor %d; want the 6 keys flagged since, cursor 10", agg.Covered, len(agg.Recent), agg.At.Cursor)
	}
	if one := positioned(t, p, "users", start.At); !one.Covered || !slices.Equal(sortedRecent(one), fingerprints(users...)) {
		t.Errorf("?table=users renewal lists %d fingerprints, want the table's own 2", len(one.Recent))
	}
	if none := positioned(t, p, "never-reported", start.At); !none.Covered || len(none.Recent) != 0 {
		t.Errorf("renewal of an unknown table: %+v", none)
	}

	// Positions that no log can answer for.
	uncovered := p.Stats().UncoveredPolls
	for name, since := range map[string]Position{
		"another instance": {Epoch: start.At.Epoch + 1, Cursor: 3},
		"ahead of cursor":  {Epoch: start.At.Epoch, Cursor: agg.At.Cursor + 1},
	} {
		if snap := positioned(t, p, "", since); snap.Covered || snap.Recent != nil {
			t.Errorf("%s: covered with %d fingerprints", name, len(snap.Recent))
		}
	}
	if got := p.Stats().UncoveredPolls - uncovered; got != 2 {
		t.Errorf("UncoveredPolls moved by %d, want 2 (an unpositioned poll is not one)", got)
	}
	if NewPartitioned(opts).Snapshot().At.Epoch == start.At.Epoch {
		t.Error("two instances share an epoch")
	}

	// The budget: 200 + 200 flaggings are listed per table, and omitted —
	// never cut short — from the aggregate.
	held := agg.At
	flagKeys(p, "posts", 100, 200)
	flagKeys(p, "users", 100, 200)
	if snap := positioned(t, p, "", held); snap.Covered || snap.Recent != nil {
		t.Errorf("400 flaggings since: aggregate covered with %d fingerprints, want none (budget %d)", len(snap.Recent), FlagLogSize)
	}
	if snap := positioned(t, p, "posts", held); !snap.Covered || len(snap.Recent) != 200 {
		t.Errorf("200 flaggings in one table: covered %v with %d fingerprints", snap.Covered, len(snap.Recent))
	}

	// Ring overflow: one more flagging than a partition remembers.
	held = p.Snapshot().At
	flagKeys(p, "posts", 1000, FlagLogSize+1)
	if snap := positioned(t, p, "posts", held); snap.Covered {
		t.Errorf("%d flaggings since in one partition: covered with %d fingerprints", FlagLogSize+1, len(snap.Recent))
	}
	if snap := positioned(t, p, "users", held); !snap.Covered || len(snap.Recent) != 0 {
		t.Errorf("the overflow of another partition uncovered ?table=users: %+v", snap.Covered)
	}
	if snap := positioned(t, p, "posts", Position{Epoch: held.Epoch, Cursor: held.Cursor + 1}); !snap.Covered || len(snap.Recent) != FlagLogSize {
		t.Errorf("a position the ring still reaches: covered %v with %d fingerprints, want %d", snap.Covered, len(snap.Recent), FlagLogSize)
	}
	if st := p.Stats(); st.FlagLogDropped != 3+4+1+200+FlagLogSize+1-FlagLogSize {
		t.Errorf("FlagLogDropped = %d", st.FlagLogDropped)
	}
}

// TestCarryNoFlaggingFallsBetweenPolls runs positioned polls against
// concurrent writers (for the race detector too). Each poll is positioned at
// the cursor of the one before, so every flagging must be listed by one of
// them: by the first poll that visits its partition after it, which is no
// earlier than the poll running (or next to run) when the flagging began
// and no later than the first poll to begin after it ended. A flagging that
// took its position before a poll read the cursor and set its bits after
// the poll visited the partition would be in neither.
func TestCarryNoFlaggingFallsBetweenPolls(t *testing.T) {
	p := NewPartitioned(&Options{Bits: 1 << 10, Hashes: 2})
	tables := []string{"a", "b", "c"}
	// phase is odd while a poll runs; poll n runs in phase 2n+1.
	var phase atomic.Int64
	type flagged struct {
		fp            uint64
		before, after int64
	}
	const writers, perWriter = 4, 3000
	logs := make([][]flagged, writers)
	since := p.Snapshot().At
	// Writers stay within half a log of the last poll's cursor, so polls
	// stay covered however the scheduler slices the goroutines.
	var polled atomic.Uint64
	polled.Store(since.Cursor)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// A key of its own per flagging: no other one's fingerprint
				// can stand in for it.
				key := fmt.Sprintf("%s/w%d-%d", tables[(w+i)%len(tables)], w, i)
				p.ReportRead(key, time.Hour)
				for p.pos.Load() > polled.Load()+FlagLogSize/2 {
					runtime.Gosched()
				}
				before := phase.Load()
				if !p.ReportWrite(key) {
					t.Error("a served key was not flagged")
					return
				}
				logs[w] = append(logs[w], flagged{Fingerprint(key), before, phase.Load()})
			}
		}()
	}
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()

	var polls []Snapshot
	for done := false; !done; {
		// Leave room for some flaggings between two polls, not for more
		// than a log holds.
		for idle := true; idle; {
			select {
			case <-stop:
				done, idle = true, false // one last poll after the last flagging
			default:
				runtime.Gosched()
				idle = p.pos.Load() < since.Cursor+32
			}
		}
		phase.Add(1)
		snap := positioned(t, p, "", since)
		phase.Add(1)
		polls = append(polls, snap)
		since = snap.At
		polled.Store(since.Cursor)
	}

	covered, checked := 0, 0
	for _, snap := range polls {
		if snap.Covered {
			covered++
		}
		slices.Sort(snap.Recent)
	}
	for _, log := range logs {
	next:
		for _, f := range log {
			// Phase 2n is the idle time before poll n, 2n+1 poll n itself.
			first, last := int(f.before/2), int((f.after+1)/2)
			for _, poll := range polls[first : last+1] {
				if _, listed := slices.BinarySearch(poll.Recent, f.fp); listed || !poll.Covered {
					checked++
					continue next
				}
			}
			t.Fatalf("a flagging made in phases %d–%d is in the recent of none of polls %d–%d", f.before, f.after, first, last)
		}
	}
	t.Logf("%d polls (%d covered), %d flaggings checked", len(polls), covered, checked)
	if covered == 0 || checked == 0 {
		t.Errorf("nothing was checked: %d covered polls, %d flaggings between polls", covered, checked)
	}
}

// TestWhitelistFlatUnderKeyChurn is the "memory flat under key churn" check
// for the carried whitelist (model: TestTTLTableFlatUnderKeyChurn): 200 000
// distinct keys are served with a 1 s TTL, written and revalidated at one
// per millisecond, the view renews every 100 ms. After each renewal the
// whitelist holds no more keys than the filter flags, so it is bounded by
// the 1 000 keys live at a time however many were ever revalidated.
func TestWhitelistFlatUnderKeyChurn(t *testing.T) {
	c := newFakeClock()
	p := NewPartitioned(&Options{Bits: 1 << 16, Hashes: 4, Clock: c.Now})
	const keys, window, every = 200000, 1000, 100
	v := NewClientView(p.Snapshot())
	peak, uncovered := 0, 0
	for i := 0; i < keys; i++ {
		c.Advance(time.Second / window)
		key := fmt.Sprintf("t/k%d", i)
		p.ReportRead(key, time.Second)
		p.ReportWrite(key)
		if i%every != 0 {
			continue
		}
		if !v.Refresh(positioned(t, p, "", v.Position())) {
			uncovered++
		}
		entries := p.Stats().CurrentEntries
		if len(v.whitelist) > entries {
			t.Fatalf("key %d: whitelist holds %d keys, the filter flags %d", i, len(v.whitelist), entries)
		}
		// Revalidate what this renewal flags of the last 100 keys.
		_, gen := v.Lookup(key)
		for k := max(0, i-every+1); k <= i; k++ {
			v.Whitelist(fmt.Sprintf("t/k%d", k), gen, true)
		}
		peak = max(peak, len(v.whitelist))
	}
	if uncovered != 0 {
		t.Errorf("%d renewals were uncovered with %d flaggings between polls (the log holds %d)", uncovered, every, FlagLogSize)
	}
	if peak == 0 || peak > window+every {
		t.Errorf("whitelist peaked at %d keys, want within the %d live ones (+%d per renewal)", peak, window, every)
	}
}
