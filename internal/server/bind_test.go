package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"quaestor/internal/document"
	"quaestor/internal/store"
)

// txnBindCases are /v1/transaction bodies on each of encoding/json's
// struct rules the binder follows: key case, unknown keys, nulls,
// duplicate keys, the reads map's integers, wrong types, nesting and
// malformed JSON.
func txnBindCases() []string {
	deepDoc := func(arrays int) string { // the body's object, writes, op and doc make 4 levels
		return `{"writes":[{"op":"put","doc":{"a":` + strings.Repeat("[", arrays) + strings.Repeat("]", arrays) + `}}]}`
	}
	return []string{
		`{"reads":{"posts/a":1,"posts/b":0},"writes":[{"op":"put","table":"posts","id":"a","doc":{"_id":"a","n":1,"tags":["x"]}}]}`,
		`{"Writes":[{"OP":"patch","Table":"posts","ID":"a","SPEC":{"set":{"n":2},"INC":{"c":1.5},"unset":["x"],"push":{"t":"y"},"pull":{"t":"z"},"ifversion":3}}],"READS":{"posts/a":2}}`,
		`{"writes":[{"op":"delete","table":"t","id":"a"}]}`,
		`{"extra":{"deep":[1,2,{"x":null}]},"writes":[{"op":"delete","table":"t","id":"a","unknown":true}],"nope":1e400}`,
		`{"writes":[{"op":"patch","spec":{"ſet":{"a":1},"other":[1e400]}}]}`,
		`{"reads":null,"writes":[null,{"op":null,"table":"t","id":"a","doc":null,"spec":null}]}`,
		`{"writes":[{"op":"patch","spec":{"set":null,"unset":null,"inc":null,"push":null,"pull":null,"ifVersion":null}}]}`,
		`{"writes":[{"op":"patch","spec":{"set":{"a":null},"unset":[null,"b"],"inc":{"c":null}}}]}`,
		`{"reads":{"a":-0,"b":9223372036854775807,"c":-9223372036854775808,"d":null}}`,
		`{"reads":{"a":1.5}}`, `{"reads":{"a":1e2}}`, `{"reads":{"a":1.0}}`, `{"reads":{"a":9223372036854775808}}`, `{"reads":{"a":"1"}}`,
		`{"reads":[]}`, `{"reads":{}}`, `{"writes":[]}`, `{}`, `null`, ` {} `,
		`{"writes":{}}`, `{"writes":[1]}`, `{"writes":"x"}`, `{"writes":[{"op":5}]}`, `{"writes":[{"id":true}]}`, `{"writes":[{"doc":"x"}]}`,
		`{"writes":[{"doc":[]}]}`, `{"writes":[{"doc":{"_version":1.5}}]}`, `{"writes":[{"spec":[]}]}`, `{"writes":[{"spec":{"inc":{"a":"x"}}}]}`,
		`{"writes":[{"spec":{"inc":{"a":1e400}}}]}`, `{"writes":[{"spec":{"set":{"a":1e400}}}]}`, `{"writes":[{"spec":{"set":{"a":[1,{"b":-1e400}]}}}]}`,
		`{"writes":[{"spec":{"unset":"a"}}]}`, `{"writes":[{"spec":{"unset":[1]}}]}`, `{"writes":[{"spec":{"ifVersion":1.5}}]}`,
		`{"writes":[{"spec":{"ifVersion":"1"}}]}`, `{"writes":[{"doc":{"a":1e400}}]}`, `{"writes":[{"doc":{"a":1e400,"a":1}}]}`,
		`[]`, `"x"`, `1`, `true`, ``, `{"writes":[}`, `{"writes":[{"op":"put"}]} x`, `{"writes":[{"op":"put"},]}`, `{"reads":{"a":1,}}`,
		`{"reads":{"a":1},"reads":{"b":2}}`,
		`{"writes":[{"op":"put","table":"t"},{"op":"delete"}],"writes":[{"id":"x"}]}`,
		`{"writes":[{"spec":{"set":{"a":1},"unset":["u","v"]}}],"writes":[{"spec":{"SET":{"b":2},"unset":["w"]}}]}`,
		`{"writes":[{"doc":{"_id":"a","_version":4,"x":1}}],"writes":[{"doc":{"y":2}}]}`,
		`{"writes":[{"op":"patch","spec":{"set":{"n":9007199254740993,"f":1.5,"e":1e2,"z":-0,"o":{"a":[1,2,"s",true,null]}},"push":{"p":{"q":[]}}}}]}`,
		`{"writes":[{"op":"put","doc":{"s":"😀\ud800A","t":"bad` + "\xff" + `"}}]}`,
		deepDoc(maxNestingForTest - 4), deepDoc(maxNestingForTest - 3),
	}
}

// maxNestingForTest is encoding/json's nesting limit.
const maxNestingForTest = 10000

// TestTxnBindMatchesEncodingJSON: the direct binder and encoding/json
// accept and refuse the same transaction bodies and bind the same
// content. The one difference allowed is the type of a number inside an
// update spec's values, which encoding/json decodes as float64.
func TestTxnBindMatchesEncodingJSON(t *testing.T) {
	for _, body := range txnBindCases() {
		var want TxnRequest
		wantErr := json.Unmarshal([]byte(body), &want)
		got, gotErr := DecodeTxnRequest([]byte(body))
		label := body
		if len(label) > 120 {
			label = label[:120] + "…"
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%s: binder err = %v, encoding/json err = %v", label, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			continue
		}
		if diff := diffTxn(got, want); diff != "" {
			t.Errorf("%s: %s", label, diff)
		}
	}
}

// TestUpdateSpecBindMatchesEncodingJSON does the same for PATCH bodies.
func TestUpdateSpecBindMatchesEncodingJSON(t *testing.T) {
	for _, body := range []string{
		`{"Set":{"rating":9}}`, `{"set":{"rating":7},"inc":{"views":2}}`, `{"ſet":{"a":1},"SET":{"b":2}}`, `{"set":null}`, `null`,
		`{"set":{"a":1},"set":{"b":2}}`, `{"unset":["a"],"Unset":["b","c"]}`, `{"ifVersion":3,"IFVERSION":null}`, `{"IfVersion":-1}`,
		`{"pull":{"tags":"x"},"push":{"tags":{"k":[1,2]}}}`, `{"unknown":{"x":[1e400]}}`, `[]`, `{"set":[]}`, `{"inc":{"a":true}}`,
		`{"set":{"x":1e400}}`, `{"set":{"x":1}} {}`, `{"set":{"x":1},}`,
	} {
		var want store.UpdateSpec
		wantErr := json.Unmarshal([]byte(body), &want)
		var got store.UpdateSpec
		dec := document.NewDecoder([]byte(body))
		gotErr := bindUpdateSpec(dec, &got)
		if gotErr == nil {
			gotErr = dec.End()
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%s: binder err = %v, encoding/json err = %v", body, gotErr, wantErr)
			continue
		}
		if gotErr == nil {
			if diff := diffSpec(&got, &want); diff != "" {
				t.Errorf("%s: %s", body, diff)
			}
		}
	}
}

func diffTxn(got, want TxnRequest) string {
	if !reflect.DeepEqual(got.Reads, want.Reads) {
		return fmt.Sprintf("reads %#v, want %#v", got.Reads, want.Reads)
	}
	if len(got.Writes) != len(want.Writes) || (got.Writes == nil) != (want.Writes == nil) {
		return fmt.Sprintf("writes %#v, want %#v", got.Writes, want.Writes)
	}
	for i := range got.Writes {
		g, w := got.Writes[i], want.Writes[i]
		if g.Op != w.Op || g.Table != w.Table || g.ID != w.ID {
			return fmt.Sprintf("write %d: %+v, want %+v", i, g, w)
		}
		if (g.Doc == nil) != (w.Doc == nil) || g.Doc != nil &&
			(g.Doc.ID != w.Doc.ID || g.Doc.Version != w.Doc.Version || !reflect.DeepEqual(g.Doc.Body(), w.Doc.Body())) {
			return fmt.Sprintf("write %d: doc %+v, want %+v", i, g.Doc, w.Doc)
		}
		if (g.Spec == nil) != (w.Spec == nil) {
			return fmt.Sprintf("write %d: spec %+v, want %+v", i, g.Spec, w.Spec)
		}
		if g.Spec != nil {
			if diff := diffSpec(g.Spec, w.Spec); diff != "" {
				return fmt.Sprintf("write %d: %s", i, diff)
			}
		}
	}
	return ""
}

// diffSpec compares two bound specs; values are compared as documents
// compare them, which takes an int64 and a float64 of one value as equal.
func diffSpec(got, want *store.UpdateSpec) string {
	if !reflect.DeepEqual(got.Unset, want.Unset) || !reflect.DeepEqual(got.Inc, want.Inc) || got.IfVersion != want.IfVersion {
		return fmt.Sprintf("spec %+v, want %+v", *got, *want)
	}
	for name, pair := range map[string][2]map[string]any{"set": {got.Set, want.Set}, "push": {got.Push, want.Push}, "pull": {got.Pull, want.Pull}} {
		g, w := pair[0], pair[1]
		if (g == nil) != (w == nil) || len(g) != len(w) {
			return fmt.Sprintf("%s %#v, want %#v", name, g, w)
		}
		for k, wv := range w {
			if gv, ok := g[k]; !ok || !document.DeepEqual(gv, wv) {
				return fmt.Sprintf("%s[%q] = %#v, want %#v", name, k, gv, wv)
			}
		}
	}
	return ""
}

// bigInt is 2⁵³+1, the first integer a float64 cannot hold.
const bigInt int64 = 1<<53 + 1

// TestSpecNumbersExactThroughPatch: an update spec's integers are stored
// exactly and as int64, as the same values sent by PUT are; a number
// beyond float64's range is a 400 that leaves the document alone.
func TestSpecNumbersExactThroughPatch(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	h := srv.Handler()
	if rec := serve(h, http.MethodPut, "/v1/db/posts/p1", `{"arr":[]}`); rec.Code != http.StatusOK {
		t.Fatalf("PUT = %d: %s", rec.Code, rec.Body)
	}
	body := fmt.Sprintf(`{"set":{"n":%d,"small":3,"nested":{"m":%d}},"push":{"arr":%d}}`, bigInt, bigInt, bigInt)
	if rec := serve(h, http.MethodPatch, "/v1/db/posts/p1", body); rec.Code != http.StatusOK {
		t.Fatalf("PATCH = %d: %s", rec.Code, rec.Body)
	}
	checkExactSpecNumbers(t, srv, "p1", 2)

	if rec := serve(h, http.MethodPatch, "/v1/db/posts/p1", `{"set":{"x":1e400}}`); rec.Code != http.StatusBadRequest {
		t.Errorf("PATCH with 1e400 = %d: %s, want 400", rec.Code, rec.Body)
	}
	checkExactSpecNumbers(t, srv, "p1", 2)
}

// TestSpecNumbersExactThroughTransaction is the same through a
// transaction's patch op.
func TestSpecNumbersExactThroughTransaction(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	h := srv.Handler()
	put := `{"writes":[{"op":"put","table":"posts","id":"p1","doc":{"arr":[]}}]}`
	if rec := serve(h, http.MethodPost, "/v1/transaction", put); rec.Code != http.StatusOK {
		t.Fatalf("put transaction = %d: %s", rec.Code, rec.Body)
	}
	patch := fmt.Sprintf(`{"writes":[{"op":"patch","table":"posts","id":"p1","spec":{"set":{"n":%d,"small":3,"nested":{"m":%d}},"push":{"arr":%d}}}]}`, bigInt, bigInt, bigInt)
	if rec := serve(h, http.MethodPost, "/v1/transaction", patch); rec.Code != http.StatusOK {
		t.Fatalf("patch transaction = %d: %s", rec.Code, rec.Body)
	}
	checkExactSpecNumbers(t, srv, "p1", 2)

	bad := `{"writes":[{"op":"patch","table":"posts","id":"p1","spec":{"set":{"x":1e400}}}]}`
	if rec := serve(h, http.MethodPost, "/v1/transaction", bad); rec.Code != http.StatusBadRequest {
		t.Errorf("transaction with 1e400 = %d: %s, want 400", rec.Code, rec.Body)
	}
	checkExactSpecNumbers(t, srv, "p1", 2)
}

// checkExactSpecNumbers reads p1 back over HTTP and from the store: the
// spec's integers are exact in the body and int64 in the stored document.
func checkExactSpecNumbers(t *testing.T, srv *Server, id string, version int64) {
	t.Helper()
	rec := serve(srv.Handler(), http.MethodGet, "/v1/db/posts/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET = %d: %s", rec.Code, rec.Body)
	}
	for _, want := range []string{
		fmt.Sprintf(`"n":%d`, bigInt), fmt.Sprintf(`"m":%d`, bigInt), fmt.Sprintf(`"arr":[%d]`, bigInt),
		fmt.Sprintf(`"_version":%d`, version),
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("GET body %s lacks %s", rec.Body, want)
		}
	}
	doc, err := srv.router.Get("posts", id)
	if err != nil {
		t.Fatal(err)
	}
	body := doc.Body()
	nested, _ := body["nested"].(map[string]any)
	arr, _ := body["arr"].([]any)
	if body["n"] != bigInt || body["small"] != int64(3) || nested["m"] != bigInt || len(arr) != 1 || arr[0] != bigInt {
		t.Errorf("stored fields %#v: want the spec's integers as exact int64s", body)
	}
}

// TestRequestBodyTrailingDataIs400: a data-path body is one JSON value;
// bytes after it are refused, not ignored, and nothing is written.
func TestRequestBodyTrailingDataIs400(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	h := srv.Handler()
	for _, tc := range []struct{ method, target, body string }{
		{http.MethodPut, "/v1/db/posts/p1", `{"a":1} {"a":2}`},
		{http.MethodPost, "/v1/db/posts", `{"_id":"p1"}x`},
		{http.MethodPatch, "/v1/db/posts/p1", `{"set":{"a":1}}]`},
		{http.MethodPost, "/v1/transaction", `{"writes":[{"op":"put","table":"posts","id":"p1","doc":{}}]},`},
	} {
		if rec := serve(h, tc.method, tc.target, tc.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s %s = %d: %s, want 400", tc.method, tc.target, tc.body, rec.Code, rec.Body)
		}
	}
	if rec := serve(h, http.MethodGet, "/v1/db/posts/p1", ""); rec.Code != http.StatusNotFound {
		t.Errorf("GET after refused writes = %d: %s, want 404", rec.Code, rec.Body)
	}
	if rec := serve(h, http.MethodPut, "/v1/db/posts/p1", " {\"a\":1}\r\n\t "); rec.Code != http.StatusOK {
		t.Errorf("PUT with surrounding whitespace = %d: %s", rec.Code, rec.Body)
	}
}
