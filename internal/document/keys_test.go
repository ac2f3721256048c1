package document

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// legacyMatchKey and legacyCanonical are the strings.Builder encoders
// AppendMatchKey and appendCanonical replaced, kept as the reference
// their keys must equal byte for byte.
func legacyMatchKey(v any) string {
	var sb strings.Builder
	legacyWriteMatchKey(&sb, v)
	return sb.String()
}

func legacyCanonical(v any) string {
	var sb strings.Builder
	legacyWriteCanonical(&sb, v)
	return sb.String()
}

func legacyWriteMatchKey(sb *strings.Builder, v any) {
	switch t := v.(type) {
	case int64:
		legacyWriteCanonical(sb, float64(t))
	case []any:
		sb.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				sb.WriteByte(',')
			}
			legacyWriteMatchKey(sb, e)
		}
		sb.WriteByte(']')
	case map[string]any:
		sb.WriteByte('{')
		for i, k := range sortedKeys(t) {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Quote(k))
			sb.WriteByte(':')
			legacyWriteMatchKey(sb, t[k])
		}
		sb.WriteByte('}')
	default:
		legacyWriteCanonical(sb, v)
	}
}

func legacyWriteCanonical(sb *strings.Builder, v any) {
	switch t := v.(type) {
	case nil:
		sb.WriteString("null")
	case bool:
		if t {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case int64:
		sb.WriteString(strconv.FormatInt(t, 10))
	case float64:
		if t == float64(int64(t)) {
			sb.WriteString(strconv.FormatInt(int64(t), 10))
		} else {
			sb.WriteString(strconv.FormatFloat(t, 'g', -1, 64))
		}
	case string:
		sb.WriteString(strconv.Quote(t))
	case []any:
		sb.WriteByte('[')
		for i, e := range t {
			if i > 0 {
				sb.WriteByte(',')
			}
			legacyWriteCanonical(sb, e)
		}
		sb.WriteByte(']')
	case map[string]any:
		sb.WriteByte('{')
		for i, k := range sortedKeys(t) {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Quote(k))
			sb.WriteByte(':')
			legacyWriteCanonical(sb, t[k])
		}
		sb.WriteByte('}')
	default:
		fmt.Fprintf(sb, "%v", t)
	}
}

// keyValues covers every canonical type: scalars, integral and huge
// numbers, strings with quotes, escapes and non-ASCII runes, and nested
// arrays and maps (plus one non-canonical type, printed with %v).
var keyValues = []any{
	nil, true, false,
	int64(0), int64(-7), int64(1 << 60), int64(1<<60 + 1), int64(math.MinInt64), int64(math.MaxInt64),
	0.0, math.Copysign(0, -1), 1.0, -3.0, 2.5, 1e21, 1e300, -1e-7, math.MaxFloat64, math.Inf(1), math.NaN(),
	"", "tag001", `q"uo\te`, "new\nline\x00\x7f", "é😀 ", "\xff",
	[]any{}, []any{"a", int64(1), 1.0}, []any{[]any{int64(2), []any{}}, map[string]any{"k": int64(1 << 60)}},
	map[string]any{}, map[string]any{"b": []any{nil}, "a": map[string]any{"z\"": 1.5, "y": int64(3)}},
	int32(5),
}

func TestAppendMatchKeyMatchesLegacy(t *testing.T) {
	buf := []byte("prefix")
	for _, v := range keyValues {
		want := legacyMatchKey(v)
		if got := MatchKey(v); got != want {
			t.Errorf("MatchKey(%#v) = %q, want %q", v, got, want)
		}
		if got := string(AppendMatchKey(buf[:6], v)); got != "prefix"+want {
			t.Errorf("AppendMatchKey(%#v) = %q, want %q", v, got, "prefix"+want)
		}
		if got, want := Canonical(v), legacyCanonical(v); got != want {
			t.Errorf("Canonical(%#v) = %q, want %q", v, got, want)
		}
	}
}

func TestAppendMatchKeyLookupAllocatesNothing(t *testing.T) {
	m := map[string]int{MatchKey("tag001"): 1}
	buf := make([]byte, 0, 64)
	var hits int
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendMatchKey(buf[:0], "tag001")
		hits += m[string(buf)]
	})
	if allocs != 0 || hits == 0 {
		t.Errorf("a match-key lookup allocated %v times (hits %d)", allocs, hits)
	}
}

// legacyGetPath is the strings.Split walk GetPath replaced.
func legacyGetPath(root any, path string) (any, bool) {
	if path == "" {
		return root, true
	}
	cur := root
	for _, seg := range strings.Split(path, ".") {
		switch node := cur.(type) {
		case map[string]any:
			v, ok := node[seg]
			if !ok {
				return nil, false
			}
			cur = v
		case []any:
			idx, err := strconv.Atoi(seg)
			if err != nil || idx < 0 || idx >= len(node) {
				return nil, false
			}
			cur = node[idx]
		default:
			return nil, false
		}
	}
	return cur, true
}

// pathTree has empty keys at several depths, so paths with empty
// segments resolve to something.
func pathTree() map[string]any {
	return map[string]any{
		"a":  map[string]any{"": map[string]any{"b": "a..b"}, "b": "a.b"},
		"":   map[string]any{"": "..", "x": ".x"},
		"t":  []any{"t0", map[string]any{"u": "t.1.u", "": "t.1."}, []any{"t.2.0"}},
		"a.": "never reached",
		"n":  int64(3),
	}
}

var treePaths = []string{
	"", ".", "..", "...", "a", "a.", "a..", "a..b", "a.b", "a.b.", ".x", "x.",
	"t", "t.0", "t.1", "t.1.u", "t.1.", "t.2.0", "t.2.1", "t.-1", "t.01", "t.+1", "t. 1", "t.3", "t.1e0",
	"t.9223372036854775808", "n", "n.0", "missing", "missing.a",
}

func TestGetPathMatchesSplitWalk(t *testing.T) {
	root := pathTree()
	for _, p := range treePaths {
		got, gotOK := GetPath(root, p)
		want, wantOK := legacyGetPath(root, p)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Errorf("GetPath(%q) = %v, %v; the Split walk gives %v, %v", p, got, gotOK, want, wantOK)
		}
	}
}

func TestGetPathAllocatesNothing(t *testing.T) {
	root := pathTree()
	if allocs := testing.AllocsPerRun(100, func() { GetPath(root, "t.1.u") }); allocs != 0 {
		t.Errorf("GetPath allocated %v times", allocs)
	}
}

// TestSetDeletePathSegments pins SetPath and DeletePath on the paths
// whose segments strings.Split and strings.Cut could disagree on.
func TestSetDeletePathSegments(t *testing.T) {
	for _, tc := range []struct {
		path string
		want map[string]any // an empty root after SetPath(root, path, 1)
	}{
		{"", map[string]any{"": int64(1)}},
		{".", map[string]any{"": map[string]any{"": int64(1)}}},
		{"a..b", map[string]any{"a": map[string]any{"": map[string]any{"b": int64(1)}}}},
		{"a.", map[string]any{"a": map[string]any{"": int64(1)}}},
		{"x.0", map[string]any{"x": map[string]any{"0": int64(1)}}},
	} {
		root := map[string]any{}
		if err := SetPath(root, tc.path, int64(1)); err != nil {
			t.Fatalf("SetPath(%q): %v", tc.path, err)
		}
		if !reflect.DeepEqual(root, tc.want) {
			t.Errorf("SetPath(%q) left %v, want %v", tc.path, root, tc.want)
		}
		if v, ok := GetPath(root, tc.path); tc.path != "" && (!ok || v != int64(1)) {
			t.Errorf("GetPath(%q) after SetPath = %v, %v", tc.path, v, ok)
		}
		DeletePath(root, tc.path)
		if v, ok := GetPath(root, tc.path); tc.path != "" && ok {
			t.Errorf("GetPath(%q) after DeletePath = %v", tc.path, v)
		}
	}
	root := pathTree()
	for _, tc := range []struct {
		path string
		ok   bool
	}{{"t.1.", true}, {"t.2.0", true}, {"t.2.1", false}, {"t.-1", false}, {"t.x", false}, {"n.0", false}} {
		if err := SetPath(root, tc.path, "set"); (err == nil) != tc.ok {
			t.Errorf("SetPath(%q) err = %v, want ok %v", tc.path, err, tc.ok)
		}
	}
	DeletePath(root, "t.2.0")
	DeletePath(root, "a..b")
	if v, _ := GetPath(root, "t.2"); !reflect.DeepEqual(v, []any{nil}) {
		t.Errorf("DeletePath of an array element left %v, want [<nil>]", v)
	}
	if _, ok := GetPath(root, "a..b"); ok {
		t.Error("DeletePath(a..b) left the value")
	}
	if v, _ := GetPath(root, "a.b"); v != "a.b" {
		t.Errorf("DeletePath(a..b) touched a.b: %v", v)
	}
}

// TestNameTableIsBounded decodes documents with 10 000 distinct keys:
// the table stops at maxNames, keys past the bound still decode as
// themselves, and a key the table holds decodes without allocating.
func TestNameTableIsBounded(t *testing.T) {
	for i := 0; i < 10000; i += 100 {
		var sb strings.Builder
		sb.WriteByte('{')
		for j := i; j < i+100; j++ {
			if j > i {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `"bound%05d":%d`, j, j)
		}
		sb.WriteByte('}')
		var d Document
		if err := d.UnmarshalJSON([]byte(sb.String())); err != nil {
			t.Fatal(err)
		}
		if len(d.Fields) != 100 {
			t.Fatalf("decoded %d fields, want 100", len(d.Fields))
		}
		for j := i; j < i+100; j++ {
			if v := d.Fields[fmt.Sprintf("bound%05d", j)]; v != int64(j) {
				t.Fatalf("field bound%05d = %v", j, v)
			}
		}
	}
	names := 0
	for i := range nameSlots {
		if nameSlots[i].Load() != nil {
			names++
		}
	}
	if names > maxNames || int32(names) != nameCount.Load() {
		t.Fatalf("the name table holds %d names (count %d), bound %d", names, nameCount.Load(), maxNames)
	}
	// Past the bound, escaped and long keys decode exactly as before.
	long := strings.Repeat("k", maxNameLen+1)
	var d Document
	if err := d.UnmarshalJSON([]byte(`{"ab":1,"` + long + `":2,"bound09999":3,"_id":"x"}`)); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"ab": int64(1), long: int64(2), "bound09999": int64(3)}
	if !reflect.DeepEqual(d.Fields, want) || d.ID != "x" {
		t.Errorf("decoded %v (id %q), want %v", d.Fields, d.ID, want)
	}

	var held []byte
	for i := range nameSlots {
		if p := nameSlots[i].Load(); p != nil {
			held = []byte(*p)
			break
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { intern(held) }); allocs != 0 {
		t.Errorf("a name-table hit allocated %v times", allocs)
	}
}

// TestNameTableConcurrentDecoders decodes from several goroutines at once
// while the table grows (run it with -race): every document reads back
// its own keys and values.
func TestNameTableConcurrentDecoders(t *testing.T) {
	const workers, docs = 4, 200
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < docs; i++ {
				shared, own := fmt.Sprintf("conc%03d", i%50), fmt.Sprintf("conc-%d-%d", w, i)
				var d Document
				if err := d.UnmarshalJSON([]byte(fmt.Sprintf(`{%q:%d,%q:%q}`, shared, i, own, own))); err != nil {
					errs <- err
					return
				}
				if d.Fields[shared] != int64(i) || d.Fields[own] != own || len(d.Fields) != 2 {
					errs <- fmt.Errorf("worker %d decoded %v", w, d.Fields)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
