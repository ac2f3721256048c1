package ebf

import "encoding/binary"

// Position names a point in the flag log of one filter instance: Epoch is
// fixed when the instance is built (never 0), Cursor counts the flaggings
// it has made. The zero Position is "nowhere": no log reaches back to it.
type Position struct {
	Epoch  uint64
	Cursor uint64
}

// Fingerprint is how a flag log and a renewing client name a key: its
// 64-bit FNV-1a hash. Two keys that collide make one look flagged when
// the other was, which costs a revalidation and never hides a write.
func Fingerprint(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// FlagLogSize is how many flaggings a partition remembers, and how many a
// poll may list: 384 fingerprints are 3 072 bytes, 4 096 of base64 — the
// constant budget "recent" adds to a /v1/ebf body at most. A ring longer
// than the budget would cover nothing more.
const FlagLogSize = 384

// flagging is one ReportWrite that returned true.
type flagging struct {
	pos uint64 // position among all flaggings of the instance
	fp  uint64 // Fingerprint of the key
}

// flagLog is a partition's fixed-size ring of its newest flaggings, in
// position order. Guarded by the partition's lock.
type flagLog struct {
	ring [FlagLogSize]flagging
	n    uint64 // flaggings ever added; the newest is ring[(n-1)%FlagLogSize]
	// lost is the position of the newest flagging overwritten (0: none):
	// the log reaches back to any position at or after it.
	lost uint64
}

func (l *flagLog) add(pos, fp uint64) {
	slot := &l.ring[l.n%FlagLogSize]
	if l.n >= FlagLogSize {
		l.lost = slot.pos
	}
	*slot = flagging{pos: pos, fp: fp}
	l.n++
}

// dropped counts the flaggings overwritten so far.
func (l *flagLog) dropped() uint64 {
	if l.n <= FlagLogSize {
		return 0
	}
	return l.n - FlagLogSize
}

// appendSince appends the fingerprint of every flagging after position
// since to dst, 8 little-endian bytes each. ok is false, and what was
// appended meaningless, when the log no longer reaches back to since or
// the list would grow dst beyond limit bytes.
func (l *flagLog) appendSince(dst []byte, since uint64, limit int) (_ []byte, ok bool) {
	if l.lost > since {
		return dst, false
	}
	for i := l.n; i > 0 && l.n-i < FlagLogSize; i-- {
		f := l.ring[(i-1)%FlagLogSize]
		if f.pos <= since {
			break
		}
		if len(dst)+8 > limit {
			return dst, false
		}
		dst = binary.LittleEndian.AppendUint64(dst, f.fp)
	}
	return dst, true
}
