package query

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"quaestor/internal/document"
)

func rangePlan(lo, hi Bound) Plan {
	return Plan{Kind: PlanRange, Path: "n", Lo: lo, Hi: hi}
}

func TestChooseStrategy(t *testing.T) {
	scan := Plan{Kind: PlanScan}
	rng := rangePlan(Bound{Value: int64(1), Inclusive: true}, Bound{Unbounded: true})
	cases := []struct {
		name string
		q    *Query
		plan Plan
		want string
	}{
		{"unlimited scan", New("t", True{}), scan, StrategySortAll},
		{"limited scan", New("t", True{}).Sliced(0, 10), scan, StrategyTopK},
		{"offset only", New("t", True{}).Sliced(5, 0), scan, StrategySortAll},
		{"range matching order asc", New("t", Gte("n", int64(1))).Sorted(Asc("n")), rng, StrategyOrdered},
		{"range matching order desc", New("t", Gte("n", int64(1))).Sorted(Desc("n")), rng, StrategyOrdered},
		{"range order on other path", New("t", Gte("n", int64(1))).Sorted(Asc("m")).Sliced(0, 3), rng, StrategyTopK},
		{"range compound order", New("t", Gte("n", int64(1))).Sorted(Asc("n"), Asc("m")), rng, StrategySortAll},
		{"probe with order", New("t", Eq("n", int64(1))).Sorted(Asc("n")), Plan{Kind: PlanProbe, Path: "n", Op: OpEq}, StrategySortAll},
	}
	for _, c := range cases {
		if got := ChooseStrategy(c.q, c.plan); got != c.want {
			t.Errorf("%s: strategy = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestResidualProbe(t *testing.T) {
	probe := Plan{Kind: PlanProbe, Path: "color", Op: OpEq, Values: []any{"red"}}

	// Fully implied single conjunct.
	r, n := Residual(Eq("color", "red"), probe)
	if n != 1 {
		t.Fatalf("elided = %d, want 1", n)
	}
	if _, ok := r.(True); !ok {
		t.Fatalf("residual = %#v, want True", r)
	}

	// Conjunction: only the probed conjunct drops.
	r, n = Residual(AndOf(Eq("color", "red"), Eq("size", int64(4))), probe)
	if n != 1 {
		t.Fatalf("elided = %d, want 1", n)
	}
	f, ok := r.(*Field)
	if !ok || f.Path != "size" {
		t.Fatalf("residual = %#v, want size conjunct", r)
	}

	// Different value, different path, different op: kept.
	for _, p := range []Predicate{
		Eq("color", "blue"),
		Eq("size", "red"),
		Contains("color", "red"),
		Gte("color", "red"),
	} {
		if _, n := Residual(p, probe); n != 0 {
			t.Errorf("%v wrongly elided under %+v", p, probe)
		}
	}

	// Disjunctions are never elided, even when a branch matches the probe.
	if _, n := Residual(OrOf(Eq("color", "red"), Eq("size", int64(1))), probe); n != 0 {
		t.Fatal("disjunction must not be elided")
	}

	// Contains probe implies the contains conjunct.
	cont := Plan{Kind: PlanProbe, Path: "tags", Op: OpContains, Values: []any{"x"}}
	if _, n := Residual(Contains("tags", "x"), cont); n != 1 {
		t.Fatal("contains conjunct not elided by contains probe")
	}
	if _, n := Residual(Eq("tags", "x"), cont); n != 0 {
		t.Fatal("eq conjunct wrongly elided by contains probe")
	}

	// $in: elided only when the probed list is exactly the conjunct's list.
	in := Plan{Kind: PlanProbe, Path: "tag", Op: OpIn, Values: []any{"a", "b"}}
	if _, n := Residual(In("tag", "a", "b"), in); n != 1 {
		t.Fatal("$in conjunct not elided by matching probe")
	}
	if _, n := Residual(In("tag", "a"), in); n != 0 {
		t.Fatal("shorter $in wrongly elided")
	}

	// A probe for a non-empty array returns a superset (the documents
	// carrying its first element), so the conjunct stays; the empty array
	// is posted whole and its probe is exact.
	arr := []any{"x", "y"}
	if _, n := Residual(Eq("tags", arr), Plan{Kind: PlanProbe, Path: "tags", Op: OpEq, Values: []any{arr}}); n != 0 {
		t.Fatal("array $eq wrongly elided")
	}
	inArr := Plan{Kind: PlanProbe, Path: "tags", Op: OpIn, Values: []any{"a", arr}}
	if _, n := Residual(In("tags", "a", arr), inArr); n != 0 {
		t.Fatal("$in holding an array wrongly elided")
	}
	empty := []any{}
	if _, n := Residual(Eq("tags", empty), Plan{Kind: PlanProbe, Path: "tags", Op: OpEq, Values: []any{empty}}); n != 1 {
		t.Fatal("empty-array $eq not elided by its exact probe")
	}
}

func TestResidualRange(t *testing.T) {
	// Window [10, 20): candidates are numbers in that interval.
	plan := rangePlan(Bound{Value: int64(10), Inclusive: true}, Bound{Value: int64(20)})

	implied := []Predicate{
		Gte("n", int64(10)),
		Gte("n", int64(5)),
		Gt("n", int64(9)),
		Lt("n", int64(20)),
		Lt("n", int64(25)),
		Lte("n", int64(20)),
	}
	for _, p := range implied {
		if _, n := Residual(p, plan); n != 1 {
			t.Errorf("%v not elided under [10,20)", p)
		}
	}
	kept := []Predicate{
		Gt("n", int64(10)),  // lo inclusive: candidate 10 fails x>10
		Gte("n", int64(11)), // candidate 10 fails
		Lt("n", int64(19)),  // candidate 19.5 fails
		Lte("n", int64(18)),
		Gte("n", "10"), // class mismatch
		Eq("n", int64(10)),
		Gte("m", int64(0)), // other path
	}
	for _, p := range kept {
		if _, n := Residual(p, plan); n != 0 {
			t.Errorf("%v wrongly elided under [10,20)", p)
		}
	}

	// Exclusive window lower bound implies the strict conjunct.
	excl := rangePlan(Bound{Value: int64(10)}, Bound{Unbounded: true})
	if _, n := Residual(Gt("n", int64(10)), excl); n != 1 {
		t.Fatal("x>10 not elided by exclusive lo 10")
	}
	// Unbounded window ends imply nothing on that side.
	if _, n := Residual(Lt("n", int64(100)), excl); n != 0 {
		t.Fatal("hi conjunct wrongly elided by unbounded hi")
	}
}

func TestResidualPrefix(t *testing.T) {
	// The planner compiles Prefix("s", "ab") to ["ab", "ac").
	plan := Plan{Kind: PlanRange, Path: "s", Lo: Bound{Value: "ab", Inclusive: true}, Hi: Bound{Value: "ac"}}
	if _, n := Residual(Prefix("s", "ab"), plan); n != 1 {
		t.Fatal("prefix not elided by its own compiled window")
	}
	// A narrower window still implies the prefix.
	narrow := Plan{Kind: PlanRange, Path: "s", Lo: Bound{Value: "abc", Inclusive: true}, Hi: Bound{Value: "abd"}}
	if _, n := Residual(Prefix("s", "ab"), narrow); n != 1 {
		t.Fatal("prefix not elided by narrower window")
	}
	// A wider or shifted window does not.
	wide := Plan{Kind: PlanRange, Path: "s", Lo: Bound{Value: "aa", Inclusive: true}, Hi: Bound{Value: "ac"}}
	if _, n := Residual(Prefix("s", "ab"), wide); n != 0 {
		t.Fatal("prefix wrongly elided by wider window")
	}
	// Unbounded high cannot imply a bounded prefix.
	open := Plan{Kind: PlanRange, Path: "s", Lo: Bound{Value: "ab", Inclusive: true}, Hi: Bound{Unbounded: true}}
	if _, n := Residual(Prefix("s", "ab"), open); n != 0 {
		t.Fatal("prefix wrongly elided by unbounded window")
	}
}

func TestResidualScanNoop(t *testing.T) {
	p := AndOf(Eq("a", int64(1)), Eq("b", int64(2)))
	r, n := Residual(p, Plan{Kind: PlanScan})
	if n != 0 || r != p {
		t.Fatalf("scan plan must keep the predicate untouched: %v, %d", r, n)
	}
}

func topKDoc(i int, rank int64) *document.Document {
	return document.New(fmt.Sprintf("doc-%04d", i), map[string]any{"rank": rank})
}

func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, ordering := range []SortKey{Asc("rank"), Desc("rank")} {
		for _, k := range []int{1, 3, 7, 50, 200} {
			q := New("t", True{}).Sorted(ordering)
			docs := make([]*document.Document, 100)
			for i := range docs {
				// Small value domain forces ties, exercising the id tie-break.
				docs[i] = topKDoc(i, int64(rng.Intn(12)))
			}
			top := NewTopK(q, k)
			for _, d := range docs {
				top.Offer(d)
			}
			got := top.Sorted()

			want := append([]*document.Document(nil), docs...)
			sort.Slice(want, func(i, j int) bool { return q.Less(want[i], want[j]) })
			if len(want) > k {
				want = want[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d desc=%v: got %d docs, want %d", k, ordering.Desc, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID {
					t.Fatalf("k=%d desc=%v: pos %d = %s, want %s", k, ordering.Desc, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

func TestTopKWorst(t *testing.T) {
	q := New("t", True{}).Sorted(Asc("rank"))
	top := NewTopK(q, 2)
	if top.Worst() != nil {
		t.Fatal("empty heap must have no worst")
	}
	top.Offer(topKDoc(1, 5))
	if top.Worst() != nil {
		t.Fatal("underfull heap must have no worst")
	}
	top.Offer(topKDoc(2, 3))
	if w := top.Worst(); w == nil || w.ID != "doc-0001" {
		t.Fatalf("worst = %v, want doc-0001 (rank 5)", w)
	}
	// A better candidate evicts the worst; a worse one is ignored.
	top.Offer(topKDoc(3, 1))
	if w := top.Worst(); w == nil || w.ID != "doc-0002" {
		t.Fatalf("worst after evict = %v, want doc-0002 (rank 3)", w)
	}
	top.Offer(topKDoc(4, 9))
	if top.Len() != 2 {
		t.Fatalf("len = %d, want 2", top.Len())
	}
	got := top.Sorted()
	if got[0].ID != "doc-0003" || got[1].ID != "doc-0002" {
		t.Fatalf("sorted = [%s %s], want [doc-0003 doc-0002]", got[0].ID, got[1].ID)
	}
}
