package wal

import (
	"encoding/json"
	"io"

	"quaestor/internal/document"
)

// This file is the package's streaming surface: the snapshot format
// written to an io.Writer instead of a file. Log-shipping replication
// moves it across the network — a replica bootstraps from a streamed
// snapshot.

// SnapshotStreamWriter writes the snapshot frame sequence (meta, docs,
// end) to an arbitrary writer. The file-based SnapshotWriter wraps it;
// replication streams it straight onto an HTTP response.
type SnapshotStreamWriter struct {
	w     io.Writer
	buf   []byte
	docs  int
	bytes int64
	err   error
}

// NewSnapshotStreamWriter starts a snapshot stream on w. Call Meta once,
// then Doc per document, then End.
func NewSnapshotStreamWriter(w io.Writer) *SnapshotStreamWriter {
	return &SnapshotStreamWriter{w: w}
}

func (w *SnapshotStreamWriter) writeFrame(fr *snapFrame) error {
	if w.err != nil {
		return w.err
	}
	w.err = func() error {
		payload, err := json.Marshal(fr)
		if err != nil {
			return err
		}
		w.buf = AppendFrame(w.buf[:0], payload)
		n, err := w.w.Write(w.buf)
		w.bytes += int64(n)
		return err
	}()
	return w.err
}

// Meta writes the snapshot header.
func (w *SnapshotStreamWriter) Meta(m SnapshotMeta) error {
	return w.writeFrame(&snapFrame{Kind: kindSnapMeta, Meta: &m})
}

// Doc writes one document of a table.
func (w *SnapshotStreamWriter) Doc(table string, doc *document.Document) error {
	w.docs++
	return w.writeFrame(&snapFrame{Kind: kindSnapDoc, Table: table, Doc: doc})
}

// End writes the end frame whose doc count guards against truncation.
func (w *SnapshotStreamWriter) End() error {
	return w.writeFrame(&snapFrame{Kind: kindSnapEnd, Docs: w.docs})
}

// Docs returns the number of documents written so far.
func (w *SnapshotStreamWriter) Docs() int { return w.docs }

// Bytes returns the bytes written so far.
func (w *SnapshotStreamWriter) Bytes() int64 { return w.bytes }
