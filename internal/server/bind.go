package server

import (
	"fmt"
	"net/http"

	"quaestor/internal/document"
	"quaestor/internal/store"
)

// The data path's request bodies (documents, update specs, transactions)
// are read once and decoded in one pass by a document.Decoder: a document
// inside a body is scanned once, straight into its stored form, instead
// of once by encoding/json to find it and again to decode it. The binders
// below follow encoding/json's rules for the structs they fill: a key
// matches a field exactly, else case-insensitively; unknown keys are
// skipped (and still have to be valid JSON); null leaves a string or
// number field as it is and clears a map, slice or pointer; a duplicate
// key decodes into what the first one left; a value of the wrong type is
// a 400. What differs is the numbers inside update specs: a spec value
// decodes like a document value, so an integer stays an exact int64
// instead of passing through float64.

// decodeRequest reads r's body whole under maxRequestBody and binds it
// with bind; nothing but whitespace may follow the value. what names the
// body in a 400. The body is read into a pooled buffer: what a Decoder
// yields is copied out of its input, so nothing bound refers to the
// buffer once bind returns.
func decodeRequest(w http.ResponseWriter, r *http.Request, what string, bind func(*document.Decoder) error) error {
	bp := bodyPool.Get().(*[]byte)
	body, err := readBody(w, r, *bp)
	if err == nil {
		dec := document.NewDecoder(body)
		if err = bind(dec); err == nil {
			err = dec.End()
		}
		err = bodyError(err, what)
	}
	if cap(body) <= maxPooledBody {
		*bp = body[:0]
		bodyPool.Put(bp)
	}
	return err
}

// DecodeTxnRequest decodes a /v1/transaction body as the handler does.
func DecodeTxnRequest(body []byte) (TxnRequest, error) {
	var req TxnRequest
	dec := document.NewDecoder(body)
	err := bindTxnRequest(dec, &req)
	if err == nil {
		err = dec.End()
	}
	return req, err
}

// bindTxnRequest binds a /v1/transaction body into req.
func bindTxnRequest(dec *document.Decoder, req *TxnRequest) error {
	if dec.Null() {
		return nil
	}
	return dec.Object(func(key string) error {
		switch document.FieldName(key, "reads", "writes") {
		case "reads":
			return bindMap(dec, &req.Reads, dec.Int64)
		case "writes":
			return bindSlice(dec, &req.Writes, func(op *TxnWriteOp) error { return bindTxnWriteOp(dec, op) })
		}
		return dec.Skip()
	})
}

func bindTxnWriteOp(dec *document.Decoder, op *TxnWriteOp) error {
	if dec.Null() {
		return nil
	}
	return dec.Object(func(key string) error {
		switch document.FieldName(key, "op", "table", "id", "doc", "spec") {
		case "op":
			return dec.StringField(&op.Op)
		case "table":
			return dec.StringField(&op.Table)
		case "id":
			return dec.StringField(&op.ID)
		case "doc":
			return dec.DocumentTextField(&op.Doc)
		case "spec":
			if dec.Null() {
				op.Spec = nil
				return nil
			}
			if op.Spec == nil {
				op.Spec = &store.UpdateSpec{}
			}
			return bindUpdateSpec(dec, op.Spec)
		}
		return dec.Skip()
	})
}

// bindUpdateSpec binds a PATCH body, or a transaction's patch spec.
func bindUpdateSpec(dec *document.Decoder, spec *store.UpdateSpec) error {
	if dec.Null() {
		return nil
	}
	return dec.Object(func(key string) error {
		switch document.FieldName(key, "Set", "Unset", "Inc", "Push", "Pull", "IfVersion") {
		case "Set":
			return bindMap(dec, &spec.Set, dec.Value)
		case "Unset":
			return bindSlice(dec, &spec.Unset, dec.StringField)
		case "Inc":
			return bindMap(dec, &spec.Inc, dec.Float64)
		case "Push":
			return bindMap(dec, &spec.Push, dec.Value)
		case "Pull":
			return bindMap(dec, &spec.Pull, dec.Value)
		case "IfVersion":
			if dec.Null() {
				return nil
			}
			v, err := dec.Int64()
			if err != nil {
				return fmt.Errorf("IfVersion: %w", err)
			}
			spec.IfVersion = v
			return nil
		}
		return dec.Skip()
	})
}

// bindMap decodes an object into *dst, adding to a map already there; a
// null member stores elem's zero value.
func bindMap[V any](dec *document.Decoder, dst *map[string]V, elem func() (V, error)) error {
	if dec.Null() {
		*dst = nil
		return nil
	}
	if *dst == nil {
		*dst = map[string]V{}
	}
	m := *dst
	return dec.Object(func(key string) error {
		var v V
		if !dec.Null() {
			var err error
			if v, err = elem(); err != nil {
				return fmt.Errorf("%q: %w", key, err)
			}
		}
		m[key] = v
		return nil
	})
}

// bindSlice decodes an array into *dst, element i into the slice's
// element i when there is one; [] is a non-nil empty slice.
func bindSlice[E any](dec *document.Decoder, dst *[]E, elem func(*E) error) error {
	if dec.Null() {
		*dst = nil
		return nil
	}
	s, n := *dst, 0
	err := dec.Array(func() error {
		if n == len(s) {
			var zero E
			s = append(s, zero)
		}
		n++
		return elem(&s[n-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		s = []E{}
	}
	*dst = s[:n]
	return nil
}
