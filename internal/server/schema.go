package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"

	"quaestor/internal/document"
)

// This file implements schema management, part of the DBaaS functionality
// the paper scopes for Quaestor (Section 2: "QUAESTOR therefore provides
// DBaaS functionality such as query processing, authorization, and schema
// management"). Schemas are optional per-table field constraints validated
// on every insert/put; tables without a schema accept any document
// (schema-free NoSQL default).

// FieldType constrains one schema field.
type FieldType string

// Supported schema field types.
const (
	TypeString FieldType = "string"
	TypeNumber FieldType = "number"
	TypeBool   FieldType = "bool"
	TypeArray  FieldType = "array"
	TypeObject FieldType = "object"
	TypeAny    FieldType = "any"
)

// FieldSpec describes one field's constraints.
type FieldSpec struct {
	Type     FieldType `json:"type"`
	Required bool      `json:"required,omitempty"`
}

// Schema is a per-table document shape.
type Schema struct {
	// Fields maps top-level field names to their constraints. Fields not
	// listed are unconstrained (documents stay aggregate-oriented and open).
	Fields map[string]FieldSpec `json:"fields"`
}

// Validate checks a document against the schema.
func (sc *Schema) Validate(doc *document.Document) error {
	if len(sc.Fields) == 0 {
		return nil
	}
	body := doc.Body() // a text document's is decoded afresh
	for name, spec := range sc.Fields {
		v, ok := body[name]
		if !ok {
			if spec.Required {
				return fmt.Errorf("schema: missing required field %q", name)
			}
			continue
		}
		if !typeMatches(v, spec.Type) {
			return fmt.Errorf("schema: field %q must be %s, got %T", name, spec.Type, v)
		}
	}
	return nil
}

func typeMatches(v any, t FieldType) bool {
	switch t {
	case TypeAny, "":
		return true
	case TypeString:
		_, ok := v.(string)
		return ok
	case TypeNumber:
		switch v.(type) {
		case int64, float64:
			return true
		}
		return false
	case TypeBool:
		_, ok := v.(bool)
		return ok
	case TypeArray:
		_, ok := v.([]any)
		return ok
	case TypeObject:
		_, ok := v.(map[string]any)
		return ok
	default:
		return false
	}
}

// schemaRegistry guards the per-table schemas.
type schemaRegistry struct {
	mu      sync.RWMutex
	schemas map[string]*Schema
}

func newSchemaRegistry() *schemaRegistry {
	return &schemaRegistry{schemas: map[string]*Schema{}}
}

func (r *schemaRegistry) set(table string, sc *Schema) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.schemas[table] = sc
}

func (r *schemaRegistry) get(table string) *Schema {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.schemas[table]
}

func (r *schemaRegistry) delete(table string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.schemas, table)
}

// SetSchema installs (or replaces) a table's schema. Existing documents
// are not retro-validated, matching typical schema-on-write systems.
func (s *Server) SetSchema(table string, sc *Schema) error {
	if sc != nil {
		for name, spec := range sc.Fields {
			switch spec.Type {
			case TypeString, TypeNumber, TypeBool, TypeArray, TypeObject, TypeAny, "":
			default:
				return fmt.Errorf("server: unknown schema type %q for field %q", spec.Type, name)
			}
		}
	}
	if sc == nil {
		s.schemas.delete(table)
		return nil
	}
	s.schemas.set(table, sc)
	return nil
}

// Schema returns a table's schema, or nil when the table is schema-free.
func (s *Server) Schema(table string) *Schema { return s.schemas.get(table) }

// validateDoc applies the table schema (if any) to an incoming write.
func (s *Server) validateDoc(table string, doc *document.Document) error {
	sc := s.schemas.get(table)
	if sc == nil {
		return nil
	}
	if err := sc.Validate(doc); err != nil {
		return &httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	return nil
}

// handleSchema serves GET/PUT/DELETE /v1/schema/{table}.
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	table := strings.TrimPrefix(r.URL.Path, "/v1/schema/")
	if table == "" || strings.Contains(table, "/") {
		writeError(w, badRequest("invalid table %q", table))
		return
	}
	switch r.Method {
	case http.MethodGet:
		sc := s.Schema(table)
		if sc == nil {
			writeError(w, &httpError{http.StatusNotFound, "no schema for table " + table})
			return
		}
		w.Header().Set("Cache-Control", "no-store")
		writeJSON(w, http.StatusOK, sc)
	case http.MethodPut:
		var sc Schema
		if err := decodeBody(w, r, &sc, "schema"); err != nil {
			writeError(w, err)
			return
		}
		if err := s.SetSchema(table, &sc); err != nil {
			writeError(w, badRequest("%v", err))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"table": table})
	case http.MethodDelete:
		s.schemas.delete(table)
		w.WriteHeader(http.StatusNoContent)
	default:
		writeError(w, &httpError{http.StatusMethodNotAllowed, "unsupported method"})
	}
}
