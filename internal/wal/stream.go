package wal

import (
	"encoding/json"
	"io"

	"quaestor/internal/document"
)

// This file is the package's streaming surface: the CRC framing and the
// snapshot format exported over io.Reader/io.Writer instead of files.
// Log-shipping replication moves both across the network — a replica
// bootstraps from a streamed snapshot and catches up from shipped sealed
// segments.

// FrameReader iterates CRC-framed payloads from a byte stream. Next
// returns io.EOF at a clean end of stream and ErrTorn for an incomplete
// or corrupt frame.
type FrameReader struct {
	fr frameReader
}

// NewFrameReader wraps r. Callers that care about read amplification
// should pass a buffered reader.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{fr: frameReader{r: r}}
}

// Next returns the next frame's payload. The returned slice is freshly
// allocated and safe to retain.
func (r *FrameReader) Next() ([]byte, error) {
	return r.fr.nextPayload()
}

// ScanReader decodes log records from a framed byte stream — the read
// side of segment shipping, where a replica consumes sealed segments a
// primary serves over the network. Unlike Scan, which tolerates a torn
// tail in the last on-disk segment, every frame here must be intact
// (sealed segments were fsynced whole before shipping); a torn frame
// returns ErrTorn, typically a connection cut mid-transfer.
func ScanReader(r io.Reader, fn func(*Record) error) error {
	_, torn, err := scanFrames(r, fn)
	if err == nil && torn {
		err = ErrTorn
	}
	return err
}

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
