package bloom

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	prop := func(keys []string) bool {
		f := NewForCapacity(len(keys)+1, 0.01)
		for _, k := range keys {
			f.Add(k)
		}
		for _, k := range keys {
			if !f.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n = 5000
	f := NewForCapacity(n, 0.01)
	for i := 0; i < n; i++ {
		f.Add(fmt.Sprintf("member-%d", i))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Contains(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Errorf("false positive rate %.4f far above 1%% target", rate)
	}
}

func TestPaperOperatingPoint(t *testing.T) {
	// Paper: a 14.6KB filter holding 20,000 stale entries has a ~6% FPR.
	f := New(10*1460*8, 4)
	for i := 0; i < 20000; i++ {
		f.Add(fmt.Sprintf("q:posts/tag%05d", i))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Contains(fmt.Sprintf("nonmember-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate < 0.02 || rate > 0.12 {
		t.Errorf("FPR at paper operating point = %.4f, expected ~0.06", rate)
	}
	if predicted := f.EstimatedFalsePositiveRate(); predicted < 0.02 || predicted > 0.12 {
		t.Errorf("analytic FPR = %.4f", predicted)
	}
}

func TestOptimalParameters(t *testing.T) {
	m := OptimalM(1000, 0.01)
	// Theory: m = -n ln p / ln²2 ≈ 9585 bits for n=1000, p=0.01.
	if m < 9000 || m > 10200 {
		t.Errorf("OptimalM = %d", m)
	}
	k := OptimalK(m, 1000)
	if k < 6 || k > 8 {
		t.Errorf("OptimalK = %d", k) // ≈ 6.64
	}
	if OptimalM(0, 0.01) == 0 || OptimalK(64, 0) == 0 {
		t.Error("degenerate inputs must stay positive")
	}
	if OptimalM(10, -1) == 0 {
		t.Error("invalid p must fall back")
	}
}

func TestUnion(t *testing.T) {
	a := New(1024, 4)
	b := New(1024, 4)
	a.Add("only-a")
	b.Add("only-b")
	if err := a.Union(b); err != nil {
		t.Fatal(err)
	}
	if !a.Contains("only-a") || !a.Contains("only-b") {
		t.Error("union lost members")
	}
	c := New(2048, 4)
	if err := a.Union(c); err == nil {
		t.Error("union of mismatched sizes must fail")
	}
	if err := a.Union(nil); err != nil {
		t.Error("union with nil should be a no-op")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	prop := func(keys []string) bool {
		f := New(4096, 5)
		for _, k := range keys {
			f.Add(k)
		}
		back, err := Unmarshal(f.Marshal())
		if err != nil {
			return false
		}
		if back.M() != f.M() || back.K() != f.K() || back.N() != f.N() {
			return false
		}
		for _, k := range keys {
			if !back.Contains(k) {
				return false
			}
		}
		return back.PopCount() == f.PopCount()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("XXXX0123456789ab"),
		New(64, 2).Marshal()[:17],
	}
	for i, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("case %d: corrupt data accepted", i)
		}
	}
	// Tampered k beyond limit.
	good := New(64, 2).Marshal()
	good[8] = 200
	if _, err := Unmarshal(good); err == nil {
		t.Error("k=200 accepted")
	}
	// A size whose word count wraps to 0 in 32 bits: accepted, the filter
	// had 2³²−1 bits and no words, and the first lookup indexed past them.
	wrapped := New(64, 2).Marshal()[:16]
	binary.LittleEndian.PutUint32(wrapped[4:], 1<<32-1)
	if _, err := Unmarshal(wrapped); err == nil {
		t.Error("m=2³²−1 with no words accepted")
	}
}

func TestCountingAddRemove(t *testing.T) {
	c := NewCounting(1024, 4)
	raised := c.Add("key1")
	if len(raised) == 0 {
		t.Fatal("first add should raise bits")
	}
	if !c.Contains("key1") {
		t.Error("added key missing")
	}
	// Second add of the same key raises nothing new.
	if again := c.Add("key1"); len(again) != 0 {
		t.Errorf("re-add raised %v", again)
	}
	// One remove leaves the key present (count 2 -> 1).
	if cleared := c.Remove("key1"); len(cleared) != 0 {
		t.Errorf("first remove cleared %v", cleared)
	}
	if !c.Contains("key1") {
		t.Error("key should survive one of two removes")
	}
	cleared := c.Remove("key1")
	if len(cleared) == 0 {
		t.Error("final remove should clear bits")
	}
	if c.Contains("key1") {
		t.Error("fully removed key still present")
	}
	if c.N() != 0 {
		t.Errorf("N = %d", c.N())
	}
}

func TestCountingFlattenMatchesContains(t *testing.T) {
	prop := func(keys []string, removeIdx []uint8) bool {
		c := NewCounting(2048, 4)
		for _, k := range keys {
			c.Add(k)
		}
		removed := map[string]bool{}
		for _, idx := range removeIdx {
			if len(keys) == 0 {
				break
			}
			k := keys[int(idx)%len(keys)]
			if !removed[k] {
				c.Remove(k)
				removed[k] = true
			}
		}
		flat := c.Flatten()
		for _, k := range keys {
			if !removed[k] && !flat.Contains(k) {
				return false // flat filter lost a live member
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFlattenMirrorsIncrementalBits(t *testing.T) {
	// The EBF maintains a flat mirror from Add/Remove transition bits; the
	// mirror must equal a from-scratch Flatten at all times.
	c := NewCounting(512, 3)
	mirror := New(512, 3)
	r := rand.New(rand.NewSource(5))
	live := map[string]bool{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", r.Intn(60))
		if live[k] {
			for _, bit := range c.Remove(k) {
				mirror.ClearBit(bit)
			}
			live[k] = false
		} else {
			for _, bit := range c.Add(k) {
				mirror.SetBit(bit)
			}
			live[k] = true
		}
		if i%37 == 0 {
			flat := c.Flatten()
			if flat.PopCount() != mirror.PopCount() {
				t.Fatalf("step %d: mirror diverged (%d vs %d bits)", i, mirror.PopCount(), flat.PopCount())
			}
		}
	}
}

func TestClear(t *testing.T) {
	f := New(256, 3)
	f.Add("x")
	f.Clear()
	if f.Contains("x") || f.N() != 0 || f.PopCount() != 0 {
		t.Error("Clear incomplete")
	}
	c := NewCounting(256, 3)
	c.Add("x")
	c.Clear()
	if c.Contains("x") || c.N() != 0 {
		t.Error("counting Clear incomplete")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := New(256, 3)
	f.Add("x")
	cp := f.Clone()
	cp.Add("y")
	if f.Contains("y") && !f.Contains("x") {
		t.Error("clone shares bit storage")
	}
	if !cp.Contains("x") || !cp.Contains("y") {
		t.Error("clone lost state")
	}
}

func TestIndexesStableAndBounded(t *testing.T) {
	idx1 := indexes("some-key", 1000, 7, nil)
	idx2 := indexes("some-key", 1000, 7, nil)
	if !reflect.DeepEqual(idx1, idx2) {
		t.Error("indexes must be deterministic")
	}
	if len(idx1) != 7 {
		t.Errorf("want 7 indexes, got %d", len(idx1))
	}
	for _, i := range idx1 {
		if i >= 1000 {
			t.Errorf("index %d out of range", i)
		}
	}
}

func TestFalsePositiveRateFormula(t *testing.T) {
	if FalsePositiveRate(0, 4, 10) != 1 {
		t.Error("zero-size filter should report FPR 1")
	}
	got := FalsePositiveRate(9585, 7, 1000)
	if got < 0.005 || got > 0.02 {
		t.Errorf("formula FPR = %f, want ~0.01", got)
	}
}

// TestUnionMarshaledMatchesUnionThenMarshal checks aggregation in wire
// form against the Filter path it replaces on the /v1/ebf response: OR-ing
// filters into an empty marshaled accumulator yields the bytes of
// Union-then-Marshal, element counts included.
func TestUnionMarshaledMatchesUnionThenMarshal(t *testing.T) {
	prop := func(groups [][]string) bool {
		agg := New(4096, 5)
		wire := AppendEmptyMarshaled([]byte("prefix"), 4096, 5)
		for _, keys := range groups {
			f := New(4096, 5)
			for _, k := range keys {
				f.Add(k)
			}
			if agg.Union(f) != nil || f.UnionMarshaled(wire[len("prefix"):]) != nil {
				return false
			}
		}
		return string(wire) == "prefix"+string(agg.Marshal())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	wire := AppendEmptyMarshaled(nil, 4096, 5)
	for _, f := range []*Filter{New(2048, 5), New(4096, 4)} {
		if err := f.UnionMarshaled(wire); err == nil {
			t.Errorf("union of (m=%d,k=%d) into a marshaled (4096,5) filter must fail", f.M(), f.K())
		}
	}
	if err := New(4096, 5).UnionMarshaled(wire[:len(wire)-8]); err == nil {
		t.Error("union into a truncated marshaled filter must fail")
	}
}
