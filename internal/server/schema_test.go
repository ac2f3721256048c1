package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"quaestor/internal/document"
)

func TestSchemaValidation(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	err := srv.SetSchema("posts", &Schema{Fields: map[string]FieldSpec{
		"title":  {Type: TypeString, Required: true},
		"rating": {Type: TypeNumber},
		"tags":   {Type: TypeArray},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Valid document passes.
	ok := document.New("good", map[string]any{"title": "hi", "rating": 4, "tags": []any{"x"}})
	if err := srv.Insert("posts", ok); err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
	// Missing required field fails.
	if err := srv.Insert("posts", document.New("bad1", map[string]any{"rating": 4})); err == nil {
		t.Error("missing required field accepted")
	}
	// Wrong type fails.
	if err := srv.Insert("posts", document.New("bad2", map[string]any{"title": 42})); err == nil {
		t.Error("wrong-typed field accepted")
	}
	// Optional fields may be absent; unknown fields pass (open schema).
	open := document.New("good2", map[string]any{"title": "x", "surprise": true})
	if err := srv.Insert("posts", open); err != nil {
		t.Errorf("open-schema extra field rejected: %v", err)
	}
	// Dropping the schema makes the table free-form again.
	if err := srv.SetSchema("posts", nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Insert("posts", document.New("freeform", map[string]any{"title": 1})); err != nil {
		t.Errorf("schema-free insert rejected: %v", err)
	}
}

func TestSchemaRejectsUnknownType(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	err := srv.SetSchema("posts", &Schema{Fields: map[string]FieldSpec{"x": {Type: "uuid"}}})
	if err == nil {
		t.Error("unknown field type accepted")
	}
}

func TestSchemaHTTP(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	h := srv.Handler()
	put := httptest.NewRequest(http.MethodPut, "/v1/schema/posts",
		strings.NewReader(`{"fields":{"title":{"type":"string","required":true}}}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, put)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT schema = %d %s", rec.Code, rec.Body.String())
	}
	// Writes are now validated at the HTTP layer too.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/db/posts", strings.NewReader(`{"_id":"p1","rating":1}`)))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("schema-violating insert = %d, want 422", rec.Code)
	}
	// The schema can be read back and deleted.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/schema/posts", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "title") {
		t.Errorf("GET schema = %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/schema/posts", nil))
	if rec.Code != http.StatusNoContent {
		t.Errorf("DELETE schema = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/schema/posts", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET deleted schema = %d", rec.Code)
	}
}

func TestAuthorization(t *testing.T) {
	srv := newTestServer(t, 1, nil)
	insertPost(t, srv, "p1", "x")
	srv.EnableAuth(&AuthConfig{
		Tokens: map[string]Role{
			"writer-token": RoleWriter,
			"admin-token":  RoleAdmin,
		},
		AllowAnonymousReads: true,
	})
	h := srv.Handler()
	do := func(method, path, token string) int {
		req := httptest.NewRequest(method, path, strings.NewReader(`{"_id":"x"}`))
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	// Anonymous reads stay open (cacheable data must remain reachable).
	if code := do(http.MethodGet, "/v1/db/posts/p1", ""); code != http.StatusOK {
		t.Errorf("anonymous read = %d", code)
	}
	// Anonymous writes are rejected.
	if code := do(http.MethodPost, "/v1/db/posts", ""); code != http.StatusUnauthorized {
		t.Errorf("anonymous write = %d", code)
	}
	// Invalid token is rejected even for reads.
	if code := do(http.MethodGet, "/v1/db/posts/p1", "wrong"); code != http.StatusUnauthorized {
		t.Errorf("bad token read = %d", code)
	}
	// Writer may write but not manage schemas.
	if code := do(http.MethodPost, "/v1/db/posts", "writer-token"); code != http.StatusCreated {
		t.Errorf("writer insert = %d", code)
	}
	if code := do(http.MethodPut, "/v1/schema/posts", "writer-token"); code != http.StatusForbidden {
		t.Errorf("writer schema change = %d", code)
	}
	// Admin may do both (the placeholder body decodes as an empty schema,
	// which is accepted).
	if code := do(http.MethodPut, "/v1/schema/posts", "admin-token"); code != http.StatusOK {
		t.Errorf("admin schema change = %d", code)
	}
	// Disabling auth reopens the API.
	srv.EnableAuth(nil)
	if code := do(http.MethodPost, "/v1/db/posts", ""); code == http.StatusUnauthorized {
		t.Error("auth still enforced after disable")
	}
}
