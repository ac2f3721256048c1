package server

import (
	"encoding/base64"
	"net/http"
	"strings"
	"time"

	"quaestor/internal/cache"
	"quaestor/internal/document"
)

// This file implements cacheable file delivery. Quaestor caches "files,
// records, query results" uniformly (Figure 3); Baqend serves website
// assets this way ("the central idea is to leverage all available web
// caches to not only cache immutable data but also cache database records
// and volatile files"). Files are stored as documents in a reserved table,
// which makes them inherit the whole machinery for free: TTL estimation
// from their write rates, EBF staleness flagging, and CDN purges on
// overwrite.

// FilesTable is the reserved document table backing file storage.
const FilesTable = "_files"

// ensureFilesTable lazily creates the reserved table on every shard: file
// names route by id like any other document.
func (s *Server) ensureFilesTable() error {
	return s.router.CreateTable(FilesTable)
}

// PutFile stores (or replaces) a file.
func (s *Server) PutFile(name, contentType string, content []byte) error {
	if err := s.ensureFilesTable(); err != nil {
		return err
	}
	doc := document.New(name, map[string]any{
		"content": base64.StdEncoding.EncodeToString(content),
		"type":    contentType,
	})
	return s.Put(FilesTable, doc)
}

// GetFile retrieves a file with its caching metadata.
func (s *Server) GetFile(name string) (content []byte, contentType string, etag string, ttl time.Duration, err error) {
	res, err := s.Read(FilesTable, name)
	if err != nil {
		return nil, "", "", 0, err
	}
	enc, _ := res.Doc.Get("content")
	raw, decErr := base64.StdEncoding.DecodeString(enc.(string))
	if decErr != nil {
		return nil, "", "", 0, decErr
	}
	ct, _ := res.Doc.Get("type")
	ctStr, _ := ct.(string)
	if ctStr == "" {
		ctStr = "application/octet-stream"
	}
	return raw, ctStr, res.ETag, res.TTL, nil
}

// DeleteFile removes a file.
func (s *Server) DeleteFile(name string) error {
	if err := s.ensureFilesTable(); err != nil {
		return err
	}
	return s.Delete(FilesTable, name)
}

// handleFiles serves /v1/files/{name}: GET (cacheable), PUT, DELETE.
func (s *Server) handleFiles(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/v1/files/")
	if name == "" || strings.Contains(name, "/") {
		writeError(w, badRequest("invalid file name %q", name))
		return
	}
	switch r.Method {
	case http.MethodGet:
		content, contentType, etag, ttl, err := s.GetFile(name)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Cache-Control", cache.FormatCacheControl(s.CacheControl(ttl)))
		w.Header().Set("ETag", etag)
		w.Header().Set("Content-Type", contentType)
		w.Header().Set(HeaderKey, RecordKey(FilesTable, name))
		s.addReplicaHeaders(w, "")
		if r.Header.Get("If-None-Match") == etag {
			s.revalidations.Add(1)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(content)
	case http.MethodPut:
		body, err := readBody(w, r, nil) // the file keeps it
		if err != nil {
			writeError(w, err)
			return
		}
		ct := r.Header.Get("Content-Type")
		if err := s.PutFile(name, ct, body); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"file": name})
	case http.MethodDelete:
		if err := s.DeleteFile(name); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		writeError(w, &httpError{http.StatusMethodNotAllowed, "unsupported method"})
	}
}
