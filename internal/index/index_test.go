package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"quaestor/internal/document"
)

func doc(id string, fields map[string]any) *document.Document {
	return document.New(id, fields)
}

func sortedIDs(ids []string) []string {
	out := append([]string(nil), ids...)
	sort.Strings(out)
	return out
}

func wantIDs(t *testing.T, got []string, want ...string) {
	t.Helper()
	g := sortedIDs(got)
	sort.Strings(want)
	if len(g) != len(want) {
		t.Fatalf("got %v, want %v", g, want)
	}
	for i := range g {
		if g[i] != want[i] {
			t.Fatalf("got %v, want %v", g, want)
		}
	}
}

func TestProbeEqScalar(t *testing.T) {
	f := NewField("color")
	f.Add(doc("a", map[string]any{"color": "red"}))
	f.Add(doc("b", map[string]any{"color": "blue"}))
	f.Add(doc("c", map[string]any{"color": "red"}))
	f.Add(doc("d", map[string]any{"size": 4})) // field absent: unindexed

	wantIDs(t, f.ProbeEq("red"), "a", "c")
	wantIDs(t, f.ProbeEq("blue"), "b")
	wantIDs(t, f.ProbeEq("green"))
	st := f.Stats()
	if st.Docs != 3 || st.Distinct != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProbeEqNumericFolding(t *testing.T) {
	f := NewField("n")
	f.Add(doc("a", map[string]any{"n": int64(1)}))
	f.Add(doc("b", map[string]any{"n": float64(1)}))
	// 1 and 1.0 are deep-equal in the document model and must share a key.
	wantIDs(t, f.ProbeEq(int64(1)), "a", "b")
	wantIDs(t, f.ProbeEq(float64(1)), "a", "b")
}

func TestMultikeyArrayMembership(t *testing.T) {
	f := NewField("tags")
	f.Add(doc("a", map[string]any{"tags": []any{"x", "y"}}))
	f.Add(doc("b", map[string]any{"tags": "x"}))
	f.Add(doc("c", map[string]any{"tags": []any{"y"}}))

	// Scalar equality probes see both exact values and array members.
	wantIDs(t, f.ProbeEq("x"), "a", "b")
	wantIDs(t, f.ProbeEq("y"), "a", "c")
	// An array equality probe is a superset of the exact matches: the
	// array documents carrying its first element. The scalar "x" of b is
	// posted whole and stays out; the caller re-checks the candidates.
	wantIDs(t, f.ProbeEq([]any{"x", "y"}), "a")
	wantIDs(t, f.ProbeEq([]any{"y"}), "a", "c")
	// Containment sees only element postings.
	wantIDs(t, f.ProbeContains("x"), "a")
	wantIDs(t, f.ProbeContains("y"), "a", "c")
	// The values are x and y; the arrays have no entries of their own.
	if st := f.Stats(); st.Docs != 3 || st.Distinct != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestArrayEqProbeIsSuperset: a non-empty array is posted under its
// elements only, so an equality probe for one returns every array document
// carrying its first element, and that set holds every exact match —
// including arrays with repeated elements and in another order.
func TestArrayEqProbeIsSuperset(t *testing.T) {
	f := NewField("tags")
	docs := map[string]any{
		"exact":    []any{"x", "y"},
		"twice":    []any{"x", "y"},
		"reversed": []any{"y", "x"},
		"longer":   []any{"x", "y", "z"},
		"other":    []any{"x", "z"},
		"repeated": []any{"x", "x"},
		"scalar":   "x",
		"nested":   []any{[]any{"x", "y"}},
		"empty":    []any{},
	}
	for id, v := range docs {
		f.Add(doc(id, map[string]any{"tags": v}))
	}
	probe := []any{"x", "y"}
	got := f.ProbeEq(probe)
	wantIDs(t, got, "exact", "twice", "reversed", "longer", "other", "repeated")
	candidates := map[string]bool{}
	for _, id := range got {
		candidates[id] = true
	}
	for id, v := range docs {
		if document.DeepEqual(v, probe) && !candidates[id] {
			t.Errorf("%s deep-equals the probe but is not a candidate", id)
		}
	}
	// The first element decides: a probe led by "z" sees no x-only array.
	wantIDs(t, f.ProbeEq([]any{"z", "x"}), "longer", "other")
	wantIDs(t, f.ProbeEq([]any{"w"}))
}

// TestEmptyArrayPostedWhole: the empty array has no elements to be found
// by, so it keeps a whole-value posting, found by an equality probe for []
// and by nothing else. The probe is exact, which lets the planner elide the
// conjunct.
func TestEmptyArrayPostedWhole(t *testing.T) {
	f := NewField("tags")
	f.Add(doc("e", map[string]any{"tags": []any{}}))
	f.Add(doc("n", map[string]any{"tags": []any{[]any{}}}))
	f.Add(doc("s", map[string]any{"tags": "x"}))
	// n carries [] as an element, and an array value never matches by
	// membership: not a candidate.
	wantIDs(t, f.ProbeEq([]any{}), "e")
	wantIDs(t, f.ProbeContains([]any{}), "n")
	e := f.byKey[document.MatchKey([]any{})]
	if e == nil || len(e.whole) != 1 {
		t.Fatalf("[] entry = %+v, want one whole posting", e)
	}
	wantIDs(t, f.RangeScan(Bound{Value: "", Inclusive: true}, Bound{Unbounded: true}), "s")
	f.Remove(doc("e", map[string]any{"tags": []any{}}))
	wantIDs(t, f.ProbeEq([]any{}))
}

// TestPostingMapsAllocatedOnFirstPosting: an entry gets a posting map of a
// kind only when a document is first posted under it that way, so an
// element-only value (every tag of an array-tagged table) carries no empty
// whole map, and a scalar-only value no empty elem map.
func TestPostingMapsAllocatedOnFirstPosting(t *testing.T) {
	f := NewField("tags")
	f.Add(doc("a", map[string]any{"tags": []any{"x", "y"}}))
	f.Add(doc("b", map[string]any{"tags": "s"}))
	for key, kind := range map[string]string{"x": "elem", "y": "elem", "s": "whole"} {
		e := f.byKey[document.MatchKey(key)]
		if e == nil {
			t.Fatalf("no entry for %q", key)
		}
		if kind == "elem" && e.whole != nil {
			t.Errorf("%q: whole map allocated for an element-only value", key)
		}
		if kind == "whole" && e.elem != nil {
			t.Errorf("%q: elem map allocated for a whole-only value", key)
		}
	}
	// A value posted both ways gets both maps.
	f.Add(doc("c", map[string]any{"tags": "x"}))
	if e := f.byKey[document.MatchKey("x")]; e.whole == nil || e.elem == nil {
		t.Errorf("x posted whole and by element: maps %v / %v", e.whole, e.elem)
	}
}

// TestIndexBytesPerDocument bounds what a tags index costs per document,
// in the manner of ebf's TestTTLTableFlatUnderKeyChurn: 5 000 documents,
// each tagged with 2 distinct tags of 500, the benchmark tables' shape.
// Element postings cost ≈ 100 B and ≈ 8 allocations per document; a
// posting of each whole array on top, a unique entry per document, costs
// ≈ 590 B and ≈ 21, and the ceiling keeps it out.
func TestIndexBytesPerDocument(t *testing.T) {
	const n, tags = 5000, 500
	const maxBytes, maxAllocs = 160, 10
	rng := rand.New(rand.NewSource(1))
	docs := make([]*document.Document, n)
	for i := range docs {
		a, b := rng.Intn(tags), rng.Intn(tags-1)
		if b >= a {
			b++
		}
		docs[i] = doc(fmt.Sprintf("p%05d", i), map[string]any{
			"tags": []any{fmt.Sprintf("tag%03d", a), fmt.Sprintf("tag%03d", b)},
		})
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := NewField("tags")
	for _, d := range docs {
		f.Add(d)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	runtime.KeepAlive(docs) // measure the index, not the documents' release

	perDoc := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	allocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("index: %.0f B and %.1f allocs per document, %d distinct values", perDoc, allocs, f.Stats().Distinct)
	if perDoc > maxBytes {
		t.Errorf("index holds %.0f B per document, want ≤ %d", perDoc, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("Add allocates %.1f times per document, want ≤ %d", allocs, maxAllocs)
	}
	if st := f.Stats(); st.Docs != n || st.Distinct != tags {
		t.Errorf("stats = %+v, want %d docs over %d distinct values", st, n, tags)
	}
}

func TestRemoveMaintainsPostings(t *testing.T) {
	f := NewField("tags")
	a := doc("a", map[string]any{"tags": []any{"x", "y"}})
	b := doc("b", map[string]any{"tags": "x"})
	f.Add(a)
	f.Add(b)
	f.Remove(a)
	wantIDs(t, f.ProbeEq("x"), "b")
	wantIDs(t, f.ProbeContains("y"))
	f.Remove(b)
	if st := f.Stats(); st.Docs != 0 || st.Distinct != 0 {
		t.Fatalf("stats after removal = %+v", st)
	}
	if len(f.sorted) != 0 {
		t.Fatalf("sorted slice not drained: %d entries", len(f.sorted))
	}
}

func TestRangeScanNumbers(t *testing.T) {
	f := NewField("n")
	for i := 0; i < 10; i++ {
		f.Add(doc(fmt.Sprintf("d%d", i), map[string]any{"n": int64(i)}))
	}
	// Values of other type classes must stay out of numeric ranges.
	f.Add(doc("s", map[string]any{"n": "7"}))
	f.Add(doc("b", map[string]any{"n": true}))

	wantIDs(t, f.RangeScan(Bound{Value: int64(7), Inclusive: false}, Bound{Unbounded: true}), "d8", "d9")
	wantIDs(t, f.RangeScan(Bound{Value: int64(7), Inclusive: true}, Bound{Unbounded: true}), "d7", "d8", "d9")
	wantIDs(t, f.RangeScan(Bound{Unbounded: true}, Bound{Value: int64(2), Inclusive: false}), "d0", "d1")
	wantIDs(t, f.RangeScan(Bound{Value: int64(3), Inclusive: true}, Bound{Value: int64(5), Inclusive: true}), "d3", "d4", "d5")
}

func TestRangeScanStrings(t *testing.T) {
	f := NewField("s")
	for _, v := range []string{"apple", "apricot", "banana", "cherry"} {
		f.Add(doc(v, map[string]any{"s": v}))
	}
	f.Add(doc("num", map[string]any{"s": int64(5)}))

	wantIDs(t, f.RangeScan(Bound{Value: "ap", Inclusive: true}, Bound{Value: "aq"}), "apple", "apricot")
	wantIDs(t, f.RangeScan(Bound{Value: "banana", Inclusive: true}, Bound{Unbounded: true}), "banana", "cherry")
	// Unbounded-low string scans must not leak the numeric segment.
	wantIDs(t, f.RangeScan(Bound{Unbounded: true}, Bound{Value: "b"}), "apple", "apricot")
}

func TestRangeScanArraysExcluded(t *testing.T) {
	f := NewField("n")
	f.Add(doc("arr", map[string]any{"n": []any{int64(5)}}))
	f.Add(doc("d", map[string]any{"n": int64(5)}))
	// Element postings exist under canonical "5" but range scans must only
	// surface whole scalar values (arrays never satisfy range operators).
	wantIDs(t, f.RangeScan(Bound{Value: int64(0), Inclusive: true}, Bound{Unbounded: true}), "d")
}

// rangeRunsField builds the shared fixture for the RangeRuns tests:
// numbers 1 (two docs), 2, 3, a string, and an array whose element posting
// collides with the value-2 entry.
func rangeRunsField() *Field {
	f := NewField("n")
	f.Add(doc("b", map[string]any{"n": int64(1)}))
	f.Add(doc("a", map[string]any{"n": int64(1)}))
	f.Add(doc("c", map[string]any{"n": int64(2)}))
	f.Add(doc("d", map[string]any{"n": int64(3)}))
	f.Add(doc("s", map[string]any{"n": "x"}))
	f.Add(doc("arr", map[string]any{"n": []any{int64(2)}}))
	return f
}

func collectRuns(f *Field, lo, hi Bound, desc bool, stopAfter int) [][]string {
	var runs [][]string
	f.RangeRuns(lo, hi, desc, func(ids []string) bool {
		runs = append(runs, append([]string(nil), ids...))
		return stopAfter == 0 || len(runs) < stopAfter
	})
	return runs
}

func wantRuns(t *testing.T, got, want [][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("runs = %v, want %v", got, want)
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("runs = %v, want %v", got, want)
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("runs = %v, want %v", got, want)
			}
		}
	}
}

func TestRangeRunsAscending(t *testing.T) {
	f := rangeRunsField()
	// Full numeric class: value order, ids ascending within the 1-run, the
	// string and the array excluded. The value-2 entry carries an element
	// posting (arr) that must not surface.
	got := collectRuns(f, Bound{Value: int64(0), Inclusive: true}, Bound{Unbounded: true}, false, 0)
	wantRuns(t, got, [][]string{{"a", "b"}, {"c"}, {"d"}})
}

func TestRangeRunsDescending(t *testing.T) {
	f := rangeRunsField()
	got := collectRuns(f, Bound{Value: int64(0), Inclusive: true}, Bound{Unbounded: true}, true, 0)
	wantRuns(t, got, [][]string{{"d"}, {"c"}, {"a", "b"}})
}

func TestRangeRunsBounds(t *testing.T) {
	f := rangeRunsField()
	// Exclusive low, bounded high.
	got := collectRuns(f, Bound{Value: int64(1)}, Bound{Value: int64(3), Inclusive: true}, false, 0)
	wantRuns(t, got, [][]string{{"c"}, {"d"}})
	// Exclusive high.
	got = collectRuns(f, Bound{Unbounded: true}, Bound{Value: int64(3)}, false, 0)
	wantRuns(t, got, [][]string{{"a", "b"}, {"c"}})
	// String class window stays clear of the numeric segment.
	got = collectRuns(f, Bound{Value: "a", Inclusive: true}, Bound{Unbounded: true}, false, 0)
	wantRuns(t, got, [][]string{{"s"}})
}

func TestRangeRunsEarlyStop(t *testing.T) {
	f := rangeRunsField()
	got := collectRuns(f, Bound{Value: int64(0), Inclusive: true}, Bound{Unbounded: true}, false, 1)
	wantRuns(t, got, [][]string{{"a", "b"}})
	got = collectRuns(f, Bound{Value: int64(0), Inclusive: true}, Bound{Unbounded: true}, true, 2)
	wantRuns(t, got, [][]string{{"d"}, {"c"}})
}

func TestRangeRunsElemOnlyEntrySkipped(t *testing.T) {
	f := NewField("n")
	f.Add(doc("arr", map[string]any{"n": []any{int64(5)}}))
	got := collectRuns(f, Bound{Value: int64(0), Inclusive: true}, Bound{Unbounded: true}, false, 0)
	if len(got) != 0 {
		t.Fatalf("element-only entry leaked into runs: %v", got)
	}
}

func TestValueKeys(t *testing.T) {
	whole, elems := ValueKeys([]any{"a", int64(2)})
	if whole != document.Canonical([]any{"a", int64(2)}) {
		t.Fatalf("whole = %q", whole)
	}
	if len(elems) != 2 || elems[0] != document.Canonical("a") || elems[1] != document.Canonical(int64(2)) {
		t.Fatalf("elems = %v", elems)
	}
	if _, elems := ValueKeys("scalar"); elems != nil {
		t.Fatalf("scalar must have no element keys, got %v", elems)
	}
}

// TestRepeatedElementPostsOnce: an array that repeats an element posts
// the document under it once, and removing the document removes it.
func TestRepeatedElementPostsOnce(t *testing.T) {
	f := NewField("tags")
	d := doc("d", map[string]any{"tags": []any{"a", "b", "a", "a"}})
	f.Add(d)
	f.Add(doc("e", map[string]any{"tags": []any{"a"}}))
	wantIDs(t, f.ProbeContains("a"), "d", "e")
	wantIDs(t, f.ProbeEq("a"), "d", "e")
	f.Remove(d)
	wantIDs(t, f.ProbeContains("a"), "e")
	wantIDs(t, f.ProbeContains("b"))
	if st := f.Stats(); st.Docs != 1 || st.Distinct != 1 {
		t.Fatalf("stats after removal = %+v, want 1 document under 1 value", st)
	}
}

// TestSharedPostingListUpdates: 20 000 documents share one value, as a
// low-cardinality field's do. Its entry keeps each id's position, so an
// update of any of them removes and re-posts in O(1), not by a scan of
// the list; after every document is updated in a shuffled order (some
// repeating the shared element) the postings are exact.
func TestSharedPostingListUpdates(t *testing.T) {
	const n = 20000
	f := NewField("tags")
	docs := make([]*document.Document, n)
	ids := make([]string, n)
	for i := range docs {
		ids[i] = fmt.Sprintf("d%05d", i)
		docs[i] = doc(ids[i], map[string]any{"tags": []any{"common", fmt.Sprintf("t%d", i%7)}})
		f.Add(docs[i])
	}
	e := f.byKey[document.MatchKey("common")]
	if e == nil || e.pos == nil {
		t.Fatal("an entry of 20 000 ids keeps no positions")
	}
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(n) {
		tags := []any{"common", fmt.Sprintf("u%d", i%5)}
		if i%3 == 0 {
			tags = append(tags, "common")
		}
		next := doc(ids[i], map[string]any{"tags": tags})
		f.Remove(docs[i])
		f.Add(next)
		docs[i] = next
	}
	wantIDs(t, f.ProbeContains("common"), ids...)
	wantIDs(t, f.ProbeContains("t3"))
	for i, id := range e.elem {
		if int(e.pos[id]) != i {
			t.Fatalf("%s sits at %d, its position says %d", id, i, e.pos[id])
		}
	}
	if len(e.pos) != n {
		t.Fatalf("%d positions for %d ids", len(e.pos), n)
	}
}
