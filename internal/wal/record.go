// Package wal implements Quaestor's durability subsystem: a segmented,
// CRC32-framed write-ahead log with group commit, point-in-time snapshots
// and crash recovery.
//
// The store logs every write's after-image before publishing it on the
// change stream; a single committer goroutine batches concurrent appends
// into one write (and, depending on the fsync policy, one fsync), turning
// per-write durability overhead into amortized sequential appends. On
// restart the store loads the latest snapshot and replays the log tail,
// tolerating a torn final record.
//
// On-disk record format (all integers little-endian):
//
//	frame   := length:uint32 | crc:uint32 | payload:length bytes
//	crc     := CRC-32C (Castagnoli) over payload
//	payload := JSON-encoded record (see Record)
//
// Log segments are named wal-NNNNNNNN.seg and live under <dir>; the
// current snapshot is a single atomically-renamed file <dataDir>/snapshot.db
// using the same framing (a meta frame, one frame per document, and an end
// frame whose doc count guards against truncation).
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strconv"

	"quaestor/internal/document"
)

// Kind identifies what a log record describes.
type Kind string

// Record kinds. Put covers insert, upsert and partial update uniformly:
// the record carries the full after-image, so replay is idempotent.
const (
	KindPut         Kind = "put"
	KindDelete      Kind = "delete"
	KindCreateTable Kind = "table"
	KindCreateIndex Kind = "index"

	// Snapshot-only frame kinds.
	kindSnapMeta Kind = "meta"
	kindSnapDoc  Kind = "doc"
	kindSnapEnd  Kind = "end"
)

// Record is one durable log entry.
type Record struct {
	// Seq is the store's global write sequence number. DDL records
	// (table/index creation) carry Seq 0 and are replayed unconditionally;
	// they are idempotent.
	Seq  uint64 `json:"seq,omitempty"`
	Kind Kind   `json:"kind"`
	// Table is the target table.
	Table string `json:"table,omitempty"`
	// Doc is the after-image for KindPut (wire format includes _id and
	// _version).
	Doc *document.Document `json:"doc,omitempty"`
	// ID and Version identify the tombstone for KindDelete.
	ID      string `json:"id,omitempty"`
	Version int64  `json:"version,omitempty"`
	// Path is the indexed field path for KindCreateIndex.
	Path string `json:"path,omitempty"`
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const frameHeaderSize = 8

// maxFrameSize guards decoding against absurd lengths from corrupt
// headers; no single document approaches this.
const maxFrameSize = 256 << 20

// frameChunk is what a frame's payload buffer starts at: a header's
// length is a claim, not a fact, so the reader allocates at most this much
// before bytes arrive and grows only as they do.
const frameChunk = 64 << 10

// Framing errors. ErrTorn marks a frame that is incomplete or fails its
// checksum — expected at the tail of the last segment after a crash,
// corruption anywhere else.
var (
	ErrTorn   = errors.New("wal: torn or corrupt frame")
	ErrClosed = errors.New("wal: log is closed")
)

// AppendFrame appends one CRC-framed payload to buf — the WAL's on-disk
// frame format (length + CRC-32C header). The counterpart of frameReader.
func AppendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// seqSuffixMax bounds what closeFrame appends: `,"seq":` + 20 digits + `}`.
const seqSuffixMax = 28

// putFrameGuess is what a put frame's buffer starts at before its
// document is encoded: a benchmark dataset document's frame is ≈ 300
// bytes, so most frames never grow it.
const putFrameGuess = 512

// openFrame appends rec to buf as a frame that is complete except for its
// sequence number: the header is reserved, and the payload stops before
// the record's closing brace. closeFrame splices Seq in as the last key,
// which lets the store assign Seq inside its stamp section (see
// Log.Submit): the O(document) encoding runs outside it, closing costs
// O(digits). Decoding is key-order agnostic, so segments written with
// "seq" first (before the split), or with "_id" and "_version" ahead of
// the document's fields (before puts embedded AppendJSON), read back the
// same.
func openFrame(buf []byte, rec *Record) ([]byte, error) {
	start := len(buf)
	if rec.Kind == KindPut && rec.Doc != nil {
		// Put records are the write hot path: the document goes in as
		// AppendJSON writes it, which is what encoding/json would embed.
		buf = slices.Grow(buf, frameHeaderSize+putFrameGuess+seqSuffixMax)
		buf = append(buf[:start+frameHeaderSize], `{"kind":"put","table":`...)
		buf = document.AppendJSONString(buf, rec.Table)
		buf = append(buf, `,"doc":`...)
		var err error
		if buf, err = rec.Doc.AppendJSON(buf); err != nil {
			return buf[:start], fmt.Errorf("wal: encoding record: %w", err)
		}
		return buf, nil
	}
	r := *rec
	r.Seq = 0 // omitted; closeFrame writes it
	payload, err := json.Marshal(&r)
	if err != nil {
		return buf, fmt.Errorf("wal: encoding record: %w", err)
	}
	buf = slices.Grow(buf, frameHeaderSize+len(payload)+seqSuffixMax)
	// "kind" is never omitted, so the object is non-empty and a trailing
	// `,"seq":N` keeps it well-formed.
	return append(buf[:start+frameHeaderSize], payload[:len(payload)-1]...), nil
}

// closeFrame completes the open frame at buf[start:]: it appends seq
// (omitted when zero, as DDL records carry none) and the closing brace,
// extends crc — the checksum of the payload so far — over them, and fills
// the header in.
func closeFrame(buf []byte, start int, crc uint32, seq uint64) []byte {
	tail := len(buf)
	if seq != 0 {
		buf = append(buf, `,"seq":`...)
		buf = strconv.AppendUint(buf, seq, 10)
	}
	buf = append(buf, '}')
	crc = crc32.Update(crc, castagnoli, buf[tail:])
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-frameHeaderSize))
	binary.LittleEndian.PutUint32(buf[start+4:], crc)
	return buf
}

// appendFrame encodes rec as one CRC-framed record onto buf.
func appendFrame(buf []byte, rec *Record) ([]byte, error) {
	start := len(buf)
	buf, err := openFrame(buf, rec)
	if err != nil {
		return buf[:start], err
	}
	return closeFrame(buf, start, crc32.Checksum(buf[start+frameHeaderSize:], castagnoli), rec.Seq), nil
}

// frameReader decodes CRC-framed payloads from a byte stream, tracking
// the offset of the last fully-valid frame so recovery can truncate a
// torn tail precisely.
type frameReader struct {
	r        io.Reader
	validLen int64 // bytes consumed by fully-valid frames
}

// nextPayload reads one frame's payload. It returns ErrTorn for an
// incomplete or corrupt frame and io.EOF at a clean end of stream. A
// frame up to frameChunk costs one allocation; a longer one doubles its
// buffer as bytes arrive, so a corrupt or truncated stream (a torn
// segment tail, or a replica's snapshot transfer cut short) holds a
// buffer of at most frameChunk or twice what it delivered, never what
// its header claimed.
func (fr *frameReader) nextPayload() ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, ErrTorn // header cut mid-write
	}
	n := int(binary.LittleEndian.Uint32(hdr[0:4]))
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxFrameSize {
		return nil, ErrTorn
	}
	payload := make([]byte, min(n, frameChunk))
	for have := 0; ; {
		if _, err := io.ReadFull(fr.r, payload[have:]); err != nil {
			return nil, ErrTorn
		}
		if len(payload) == n {
			break
		}
		have = len(payload)
		next := min(n, 2*have)
		payload = slices.Grow(payload, next-have)[:next]
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, ErrTorn
	}
	fr.validLen += int64(frameHeaderSize) + int64(n)
	return payload, nil
}

// next decodes one record. It returns ErrTorn for an incomplete or
// corrupt frame and io.EOF at a clean end of stream.
func (fr *frameReader) next(rec *Record) error {
	payload, err := fr.nextPayload()
	if err != nil {
		return err
	}
	*rec = Record{}
	if err := json.Unmarshal(payload, rec); err != nil {
		return ErrTorn
	}
	return nil
}
