// Package bloom implements the Bloom filter machinery underlying the
// Expiring Bloom Filter (Section 3.1).
//
// It provides a flat (immutable-style) Bloom filter for the client copy and
// a Counting Bloom filter for the server, which supports removals when a
// stale query's maximum TTL expires. Both use the standard double-hashing
// scheme g_i(x) = h1(x) + i*h2(x) mod m over 64-bit FNV-1a, giving k
// effectively independent hash functions from two (Kirsch–Mitzenmacher).
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
)

// ErrCorrupt is returned when deserializing malformed filter bytes.
var ErrCorrupt = errors.New("bloom: corrupt serialized filter")

// OptimalM returns the bit-array size minimizing false positives for n
// expected entries at target false-positive rate p: m = -n·ln(p)/ln(2)².
func OptimalM(n int, p float64) uint32 {
	if n <= 0 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		p = 0.01
	}
	m := math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2))
	if m < 8 {
		m = 8
	}
	return uint32(m)
}

// OptimalK returns the hash-function count minimizing false positives:
// k = m/n·ln(2).
func OptimalK(m uint32, n int) uint32 {
	if n <= 0 {
		n = 1
	}
	k := math.Round(float64(m) / float64(n) * math.Ln2)
	if k < 1 {
		k = 1
	}
	if k > 32 {
		k = 32
	}
	return uint32(k)
}

// FalsePositiveRate estimates the false positive probability of a filter
// with m bits and k hashes after n insertions: (1 − e^{−kn/m})^k.
func FalsePositiveRate(m, k uint32, n int) float64 {
	if m == 0 {
		return 1
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(n)/float64(m)), float64(k))
}

// hashPair derives the two base hashes for double hashing.
func hashPair(key string) (uint64, uint64) {
	h1 := fnv.New64a()
	h1.Write([]byte(key))
	a := h1.Sum64()
	h2 := fnv.New64()
	h2.Write([]byte(key))
	b := h2.Sum64()
	if b%2 == 0 {
		// An odd step guarantees full-period probing for power-of-two m and
		// avoids degenerate stride 0 for any m.
		b++
	}
	return a, b
}

// indexes fills idx with the k (not necessarily distinct) bit positions for
// key in a filter of m bits.
func indexes(key string, m, k uint32, idx []uint32) []uint32 {
	a, b := hashPair(key)
	idx = idx[:0]
	for i := uint32(0); i < k; i++ {
		idx = append(idx, uint32((a+uint64(i)*b)%uint64(m)))
	}
	return idx
}

// Filter is a flat Bloom filter — the client-side copy of the EBF
// ("Clients receive a flat, immutable copy of the EBF, i.e. a normal Bloom
// filter"). It is not safe for concurrent mutation; concurrent Contains
// calls on a filter that is no longer mutated are safe.
type Filter struct {
	m    uint32
	k    uint32
	bits []uint64
	n    int // inserted element count (approximate after Union)
}

// New creates a flat filter with m bits and k hash functions.
func New(m, k uint32) *Filter {
	if m == 0 {
		m = 8
	}
	if k == 0 {
		k = 1
	}
	return &Filter{m: m, k: k, bits: make([]uint64, (m+63)/64)}
}

// NewForCapacity sizes a filter for n entries at false-positive rate p.
func NewForCapacity(n int, p float64) *Filter {
	m := OptimalM(n, p)
	return New(m, OptimalK(m, n))
}

// M returns the bit-array size.
func (f *Filter) M() uint32 { return f.m }

// K returns the hash-function count.
func (f *Filter) K() uint32 { return f.k }

// N returns the approximate number of inserted elements.
func (f *Filter) N() int { return f.n }

// Add inserts a key.
func (f *Filter) Add(key string) {
	var buf [32]uint32
	for _, i := range indexes(key, f.m, f.k, buf[:0]) {
		f.bits[i/64] |= 1 << (i % 64)
	}
	f.n++
}

// Contains reports whether the key may be present (false positives possible,
// false negatives impossible).
func (f *Filter) Contains(key string) bool {
	var buf [32]uint32
	for _, i := range indexes(key, f.m, f.k, buf[:0]) {
		if f.bits[i/64]&(1<<(i%64)) == 0 {
			return false
		}
	}
	return true
}

// SetBit sets one raw bit position. Used when flattening a counting filter.
func (f *Filter) SetBit(i uint32) {
	if i < f.m {
		f.bits[i/64] |= 1 << (i % 64)
	}
}

// ClearBit clears one raw bit position. Used to mirror counting-filter
// removals into the flat copy.
func (f *Filter) ClearBit(i uint32) {
	if i < f.m {
		f.bits[i/64] &^= 1 << (i % 64)
	}
}

// PopCount returns the number of set bits.
func (f *Filter) PopCount() int {
	n := 0
	for _, w := range f.bits {
		n += popcount(w)
	}
	return n
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Union merges other into f with a bitwise OR. Both filters must share m
// and k — this is the per-table EBF partition aggregation from Section 3.3
// ("the aggregated EBF is constructed by a union over the EBF partitions
// through a bitwise OR-operation").
func (f *Filter) Union(other *Filter) error {
	if other == nil {
		return nil
	}
	if f.m != other.m || f.k != other.k {
		return fmt.Errorf("bloom: union of incompatible filters (m=%d,k=%d vs m=%d,k=%d)", f.m, f.k, other.m, other.k)
	}
	for i := range f.bits {
		f.bits[i] |= other.bits[i]
	}
	f.n += other.n
	return nil
}

// Clone returns a deep copy.
func (f *Filter) Clone() *Filter {
	cp := &Filter{m: f.m, k: f.k, n: f.n, bits: make([]uint64, len(f.bits))}
	copy(cp.bits, f.bits)
	return cp
}

// Clear zeroes the filter.
func (f *Filter) Clear() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.n = 0
}

// EstimatedFalsePositiveRate reports the expected FPR given the current
// element count.
func (f *Filter) EstimatedFalsePositiveRate() float64 {
	return FalsePositiveRate(f.m, f.k, f.n)
}

// marshalHeader is the wire header: magic, m, k, n (4 bytes each).
const marshalHeader = 16

// Marshal serializes the filter for the HTTP wire: a 16-byte header
// (magic, m, k, n) followed by the little-endian bit words. A sparse filter
// compresses well under HTTP gzip, as the paper notes.
func (f *Filter) Marshal() []byte {
	out := AppendEmptyMarshaled(make([]byte, 0, marshalHeader+len(f.bits)*8), f.m, f.k)
	_ = f.UnionMarshaled(out) // same (m, k): cannot fail
	return out
}

// AppendEmptyMarshaled appends the wire form of an empty filter of m bits
// and k hashes to dst: the accumulator UnionMarshaled ORs filters into.
func AppendEmptyMarshaled(dst []byte, m, k uint32) []byte {
	words := int((m + 63) / 64)
	dst = slices.Grow(dst, marshalHeader+words*8)
	dst = append(dst, "QBF1"...)
	dst = binary.LittleEndian.AppendUint32(dst, m)
	dst = binary.LittleEndian.AppendUint32(dst, k)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	return append(dst, make([]byte, words*8)...)
}

// UnionMarshaled is Union into a filter held in wire form: it ORs f's bits
// into wire and adds f's element count to the header, so partitions
// aggregate straight into the bytes that go on the wire with no
// intermediate Filter. wire must be the wire form of a filter with f's m
// and k.
func (f *Filter) UnionMarshaled(wire []byte) error {
	if len(wire) != marshalHeader+len(f.bits)*8 || string(wire[0:4]) != "QBF1" ||
		binary.LittleEndian.Uint32(wire[4:8]) != f.m || binary.LittleEndian.Uint32(wire[8:12]) != f.k {
		return fmt.Errorf("bloom: union into an incompatible marshaled filter (want m=%d,k=%d)", f.m, f.k)
	}
	binary.LittleEndian.PutUint32(wire[12:16], binary.LittleEndian.Uint32(wire[12:16])+uint32(f.n))
	words := wire[marshalHeader:]
	for i, w := range f.bits {
		if w != 0 {
			binary.LittleEndian.PutUint64(words[i*8:], binary.LittleEndian.Uint64(words[i*8:])|w)
		}
	}
	return nil
}

// Unmarshal parses bytes produced by Marshal.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < marshalHeader || string(data[0:4]) != "QBF1" {
		return nil, ErrCorrupt
	}
	m := binary.LittleEndian.Uint32(data[4:8])
	k := binary.LittleEndian.Uint32(data[8:12])
	n := binary.LittleEndian.Uint32(data[12:16])
	// In 64 bits: an m within 63 of 2³² must not wrap to "no words".
	words := int((uint64(m) + 63) / 64)
	if len(data) != marshalHeader+words*8 || k == 0 || k > 32 {
		return nil, ErrCorrupt
	}
	f := New(m, k)
	f.n = int(n)
	for i := 0; i < words; i++ {
		f.bits[i] = binary.LittleEndian.Uint64(data[marshalHeader+i*8:])
	}
	return f, nil
}

// Counting is a Counting Bloom filter: per-position counters enable removal
// ("the EBF is maintained as a Counting Bloom filter which allows discarding
// queries once they are no longer stale"). Counters saturate at 2^16−1 to
// avoid overflow corruption.
type Counting struct {
	m        uint32
	k        uint32
	counters []uint16
	n        int
}

// NewCounting creates a counting filter with m counters and k hashes.
func NewCounting(m, k uint32) *Counting {
	if m == 0 {
		m = 8
	}
	if k == 0 {
		k = 1
	}
	return &Counting{m: m, k: k, counters: make([]uint16, m)}
}

// M returns the counter-array size.
func (c *Counting) M() uint32 { return c.m }

// K returns the hash-function count.
func (c *Counting) K() uint32 { return c.k }

// N returns the current number of contained elements.
func (c *Counting) N() int { return c.n }

// Add inserts a key, returning the bit positions that transitioned 0→1 so
// the caller can update a flat mirror incrementally ("the server-side EBF
// efficiently updates the flat Bloom filter upon changes").
func (c *Counting) Add(key string) []uint32 {
	var buf [32]uint32
	var raised []uint32
	for _, i := range indexes(key, c.m, c.k, buf[:0]) {
		if c.counters[i] == 0 {
			raised = append(raised, i)
		}
		if c.counters[i] < math.MaxUint16 {
			c.counters[i]++
		}
	}
	c.n++
	return raised
}

// Remove deletes a key, returning the positions that transitioned 1→0.
// Removing a key that was never added corrupts a plain counting filter; the
// EBF layer guarantees balanced add/remove via its expiration bookkeeping.
func (c *Counting) Remove(key string) []uint32 {
	var buf [32]uint32
	var cleared []uint32
	for _, i := range indexes(key, c.m, c.k, buf[:0]) {
		if c.counters[i] > 0 && c.counters[i] < math.MaxUint16 {
			c.counters[i]--
			if c.counters[i] == 0 {
				cleared = append(cleared, i)
			}
		}
	}
	if c.n > 0 {
		c.n--
	}
	return cleared
}

// Contains reports whether the key may be present.
func (c *Counting) Contains(key string) bool {
	var buf [32]uint32
	for _, i := range indexes(key, c.m, c.k, buf[:0]) {
		if c.counters[i] == 0 {
			return false
		}
	}
	return true
}

// Flatten produces the flat Bloom filter image of all non-zero counters.
func (c *Counting) Flatten() *Filter {
	f := New(c.m, c.k)
	for i, cnt := range c.counters {
		if cnt > 0 {
			f.SetBit(uint32(i))
		}
	}
	f.n = c.n
	return f
}

// Clear zeroes all counters.
func (c *Counting) Clear() {
	for i := range c.counters {
		c.counters[i] = 0
	}
	c.n = 0
}
