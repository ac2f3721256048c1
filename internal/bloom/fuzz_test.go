package bloom

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzUnionMarshaled ORs a New(4096, 5) filter holding the given
// comma-separated keys into arbitrary bytes, the aggregation /v1/ebf runs
// on its response buffer. It must never panic, must refuse (and leave
// untouched) bytes that are not the wire form of a (4096, 5) filter, and
// whatever it accepts must come out as Union over Unmarshal of the same
// bytes would. Seeded from TestUnionMarshaledMatchesUnionThenMarshal.
func FuzzUnionMarshaled(f *testing.F) {
	full := New(4096, 5)
	for _, k := range []string{"a", "b", "posts/p1", "q:posts/tags~x"} {
		full.Add(k)
	}
	empty := AppendEmptyMarshaled(nil, 4096, 5)
	for _, seed := range []struct {
		wire []byte
		keys string
	}{
		{empty, ""},
		{empty, "a,b,c"},
		{full.Marshal(), "posts/p1,posts/p2"},
		{AppendEmptyMarshaled(nil, 2048, 5), "a"},
		{AppendEmptyMarshaled(nil, 4096, 4), "a"},
		{empty[:len(empty)-8], "a"},
		{append(append([]byte(nil), empty...), 0), "a"},
		{[]byte("QBF1"), ""},
		{nil, "a"},
	} {
		f.Add(seed.wire, seed.keys)
	}
	f.Fuzz(func(t *testing.T, wire []byte, keys string) {
		filter := New(4096, 5)
		if keys != "" {
			for _, k := range strings.Split(keys, ",") {
				filter.Add(k)
			}
		}
		orig := append([]byte(nil), wire...)
		valid := len(wire) == marshalHeader+4096/8 && string(wire[:4]) == "QBF1" &&
			binary.LittleEndian.Uint32(wire[4:8]) == 4096 && binary.LittleEndian.Uint32(wire[8:12]) == 5
		err := filter.UnionMarshaled(wire)
		if !valid {
			if err == nil {
				t.Fatalf("accepted %d bytes that are not a (4096, 5) filter", len(orig))
			}
			if !bytes.Equal(wire, orig) {
				t.Fatal("refused bytes were modified")
			}
			return
		}
		if err != nil {
			t.Fatalf("refused a (4096, 5) filter: %v", err)
		}
		want, err := Unmarshal(orig)
		if err != nil {
			t.Fatalf("UnionMarshaled accepts what Unmarshal refuses: %v", err)
		}
		if err := want.Union(filter); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, want.Marshal()) {
			t.Fatal("UnionMarshaled differs from Union over Unmarshal")
		}
	})
}
