package wal

import (
	"encoding/json"
	"strconv"

	"quaestor/internal/document"
)

// Log records and snapshot frames are decoded in one pass by a
// document.Decoder, binding the payload the way json.Unmarshal binds it
// into the struct: a key matches a field exactly, else
// case-insensitively; unknown keys are skipped (and still have to be
// valid JSON); null leaves a string or number as it is and clears a
// pointer; a duplicate key decodes into what the first one left; a value
// of the wrong type is an error. FuzzDecodeFrame holds the binders to
// json.Unmarshal.

// bindObject decodes payload, a JSON object or null, calling member with
// each key; member must decode exactly that key's value. Nothing but
// whitespace may follow.
func bindObject(payload []byte, member func(dec *document.Decoder, key string) error) error {
	dec := document.NewDecoder(payload)
	if !dec.Null() {
		if err := dec.Object(func(key string) error { return member(dec, key) }); err != nil {
			return err
		}
	}
	return dec.End()
}

func bindInt64(dec *document.Decoder, dst *int64) error {
	if dec.Null() {
		return nil
	}
	n, err := dec.Int64()
	if err == nil {
		*dst = n
	}
	return err
}

// bindUint64 accepts what encoding/json accepts for a uint64: an integer
// literal in its range.
func bindUint64(dec *document.Decoder, dst *uint64) error {
	if dec.Null() {
		return nil
	}
	lit, err := dec.Raw()
	if err != nil {
		return err
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err == nil {
		*dst = n
	}
	return err
}

// bindMeta decodes a snapshot's meta with encoding/json: it comes once
// per snapshot and holds no document.
func bindMeta(dec *document.Decoder, dst **SnapshotMeta) error {
	if dec.Null() {
		*dst = nil
		return nil
	}
	raw, err := dec.Raw()
	if err != nil {
		return err
	}
	if *dst == nil {
		*dst = &SnapshotMeta{}
	}
	return json.Unmarshal(raw, *dst)
}
