package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"quaestor/internal/document"
)

// SnapshotName is the current snapshot's file name inside the data dir.
// Snapshots are written to a temp file, fsynced and atomically renamed
// over this name, so a crash mid-snapshot leaves the previous one intact.
const SnapshotName = "snapshot.db"

// TableMeta records one table's identity, secondary-index paths and
// version floor (the highest tombstone version its deletes produced; new
// documents start above it) in a snapshot's meta frame.
type TableMeta struct {
	Name         string   `json:"name"`
	Indexes      []string `json:"indexes,omitempty"`
	VersionFloor int64    `json:"versionFloor,omitempty"`
}

// SnapshotMeta is a snapshot's header.
type SnapshotMeta struct {
	// Seq is the store sequence captured before the shard scan began; log
	// records with Seq > Seq must be replayed over the snapshot.
	Seq       uint64      `json:"seq"`
	Tables    []TableMeta `json:"tables"`
	CreatedAt time.Time   `json:"createdAt"`
}

// snapFrame is the on-disk shape of every snapshot frame.
type snapFrame struct {
	Kind  Kind               `json:"kind"`
	Meta  *SnapshotMeta      `json:"meta,omitempty"`
	Table string             `json:"table,omitempty"`
	Doc   *document.Document `json:"doc,omitempty"`
	Docs  int                `json:"docs,omitempty"` // end frame: expected doc count
}

// decodeSnapFrame decodes a snapshot frame's payload in one pass (see
// bindObject); a document frame's document decodes straight into its
// stored form.
func decodeSnapFrame(payload []byte, sf *snapFrame) error {
	return bindObject(payload, func(dec *document.Decoder, key string) error {
		switch document.FieldName(key, "kind", "meta", "table", "doc", "docs") {
		case "kind":
			return dec.StringField((*string)(&sf.Kind))
		case "meta":
			return bindMeta(dec, &sf.Meta)
		case "table":
			return dec.StringField(&sf.Table)
		case "doc":
			return dec.DocumentTextField(&sf.Doc)
		case "docs":
			n := int64(sf.Docs)
			err := bindInt64(dec, &n)
			sf.Docs = int(n)
			return err
		}
		return dec.Skip()
	})
}

// SnapshotWriter streams a point-in-time snapshot to disk: a
// SnapshotStreamWriter over a temp file with an atomic-rename Commit.
type SnapshotWriter struct {
	*SnapshotStreamWriter
	dataDir string
	tmp     string
	f       *os.File
	bw      *bufio.Writer
}

// NewSnapshotWriter starts a snapshot in dataDir. Call Meta once, then
// Doc per document, then Commit; Abort discards a partial snapshot.
func NewSnapshotWriter(dataDir string) (*SnapshotWriter, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	tmp := filepath.Join(dataDir, SnapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: creating snapshot temp: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	return &SnapshotWriter{SnapshotStreamWriter: NewSnapshotStreamWriter(bw), dataDir: dataDir, tmp: tmp, f: f, bw: bw}, nil
}

// Commit seals the snapshot (end frame + fsync) and atomically renames
// it into place.
func (w *SnapshotWriter) Commit() error {
	if err := w.End(); err != nil {
		w.Abort()
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.Abort()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.Abort()
		return err
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return err
	}
	if err := os.Rename(w.tmp, filepath.Join(w.dataDir, SnapshotName)); err != nil {
		os.Remove(w.tmp)
		return err
	}
	return syncDir(w.dataDir)
}

// Abort discards the partial snapshot.
func (w *SnapshotWriter) Abort() {
	w.f.Close()
	os.Remove(w.tmp)
}

// LoadSnapshot streams dataDir's current snapshot: onMeta fires first
// with the header, then onDoc per document. It returns false when no
// snapshot exists. An incomplete or corrupt snapshot is an error — the
// atomic rename in Commit means one should never occur.
func LoadSnapshot(dataDir string, onMeta func(SnapshotMeta) error, onDoc func(table string, doc *document.Document) error) (bool, error) {
	path := filepath.Join(dataDir, SnapshotName)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	if err := ReadSnapshotStream(bufio.NewReaderSize(f, 1<<16), onMeta, onDoc); err != nil {
		return true, fmt.Errorf("wal: reading snapshot %s: %w", path, err)
	}
	return true, nil
}

// ReadSnapshotStream decodes one snapshot frame sequence from r (the
// format SnapshotStreamWriter produces): onMeta fires first with the
// header, then onDoc per document. The end frame's doc count is
// verified, so a truncated stream — a snapshot bootstrap cut by a
// connection loss — is always detected.
func ReadSnapshotStream(r io.Reader, onMeta func(SnapshotMeta) error, onDoc func(table string, doc *document.Document) error) error {
	fr := &frameReader{r: r}
	docs, sawMeta, sawEnd := 0, false, false
	for !sawEnd {
		payload, err := fr.nextPayload()
		if err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
		var sf snapFrame
		if err := decodeSnapFrame(payload, &sf); err != nil {
			return fmt.Errorf("decoding snapshot frame: %w", err)
		}
		switch sf.Kind {
		case kindSnapMeta:
			if sf.Meta == nil {
				return errors.New("snapshot: meta frame without a meta")
			}
			sawMeta = true
			if err := onMeta(*sf.Meta); err != nil {
				return err
			}
		case kindSnapDoc:
			if !sawMeta {
				return errors.New("snapshot: doc before meta")
			}
			if sf.Doc == nil {
				return errors.New("snapshot: doc frame without a document")
			}
			docs++
			if err := onDoc(sf.Table, sf.Doc); err != nil {
				return err
			}
		case kindSnapEnd:
			sawEnd = true
			if sf.Docs != docs {
				return fmt.Errorf("snapshot: end frame expects %d docs, read %d", sf.Docs, docs)
			}
		default:
			return fmt.Errorf("snapshot: unknown frame kind %q", sf.Kind)
		}
	}
	if !sawMeta || !sawEnd {
		return fmt.Errorf("snapshot: incomplete (meta=%v end=%v)", sawMeta, sawEnd)
	}
	return nil
}
