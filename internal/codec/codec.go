// Package codec is the one binary codec of everything the engine writes:
// wire frames, slot images, estimator images and checkpoints. It holds the
// canonical append helpers and one bounded reader.
//
// Integers are varints (zigzag where the domain is signed), strings and
// byte strings are length-prefixed, and float64s are their IEEE-754 bits
// in 8 little-endian bytes. The reader accepts exactly what the helpers
// write: a padded (non-minimal) varint is rejected, so every value has one
// encoding and a decoder built on the reader can promise that what it
// accepts re-encodes to the same bytes.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zigzag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendFloat appends f's IEEE-754 bits, little-endian.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p with a uvarint length prefix.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendFramed appends what fn appends, length-prefixed exactly as
// AppendBytes(b, fn(nil)) would, but built in place in b: the longest
// prefix is reserved, fn appends after it, and the payload then moves down
// over the unused prefix bytes. A large payload so costs b's growth only,
// not a buffer of its own grown from empty and copied once more.
func AppendFramed(b []byte, fn func([]byte) []byte) []byte {
	at := len(b)
	b = fn(append(b, make([]byte, binary.MaxVarintLen64)...))
	n := len(b) - at - binary.MaxVarintLen64
	k := binary.PutUvarint(b[at:], uint64(n))
	copy(b[at+k:], b[at+binary.MaxVarintLen64:])
	return b[:at+k+n]
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader is a bounds-checked cursor over one encoded payload. Its error is
// sticky: the first failure is latched, wrapping the caller's sentinel,
// and moves the cursor to the end, so every later read fails too and
// returns a zero value. A decoder reads its fields straight through and
// checks Err once. Every announced element count is checked against the
// bytes that could hold it (Count) before anything is allocated.
type Reader struct {
	b        []byte
	off      int
	sentinel error
	err      error
	// badAt is 1 + the offset of the first read that failed, and badWhat
	// names it. A read only records them, which keeps the reads small
	// enough to inline on the decode hot paths; Err builds the error.
	badAt   int
	badWhat string
}

// NewReader returns a reader over b whose failures wrap sentinel.
func NewReader(b []byte, sentinel error) *Reader {
	return &Reader{b: b, sentinel: sentinel}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error {
	if r.err == nil && r.badAt != 0 {
		r.err = fmt.Errorf("%w: %s at offset %d", r.sentinel, r.badWhat, r.badAt-1)
	}
	return r.err
}

// Remaining reports the unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Offset reports how many bytes have been read.
func (r *Reader) Offset() int { return r.off }

// Failf latches a failure (if none is latched yet) wrapping the sentinel.
// Decoders call it for semantic checks, so those errors classify like the
// reader's own.
func (r *Reader) Failf(format string, args ...any) {
	if r.Err() == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{r.sentinel}, args...)...)
	}
	r.off = len(r.b)
}

// End latches a failure if unread bytes remain, and returns Err.
func (r *Reader) End() error {
	if n := r.Remaining(); n != 0 {
		r.Failf("%d trailing bytes", n)
	}
	return r.Err()
}

// fail records a failed read (if none is latched yet) and moves the cursor
// to the end.
func (r *Reader) fail(what string) {
	if r.badAt == 0 && r.err == nil {
		r.badAt, r.badWhat = r.off+1, what
	}
	r.off = len(r.b)
}

// Uvarint reads an unsigned varint in its minimal encoding.
func (r *Reader) Uvarint() uint64 {
	if r.off < len(r.b) {
		if x := r.b[r.off]; x < 0x80 {
			r.off++
			return uint64(x)
		}
	}
	return r.uvarint()
}

// uvarint is Uvarint past the one-byte case. A padded encoding (a
// multi-byte varint ending in a zero byte, which the shortest form never
// does) fails like a truncated or overflowing one.
func (r *Reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || n > 1 && r.b[r.off+n-1] == 0 {
		r.fail("truncated, overflowing or padded varint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag varint in its minimal encoding.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads an element count whose per-element encoding occupies at
// least minBytes bytes, rejecting counts the remaining payload cannot
// hold: the length-bomb guard.
func (r *Reader) Count(minBytes int) int {
	v := r.Uvarint()
	if v > uint64(r.Remaining()/max(minBytes, 1)) {
		r.fail("count beyond the bytes left")
		return 0
	}
	return int(v)
}

// Int reads a varint that must fit the host int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.fail("varint beyond int")
		return 0
	}
	return int(v)
}

// Uint reads a uvarint that must fit 31 bits, the range of every size,
// index and budget the engine encodes unsigned; the bound is the same on
// every host.
func (r *Reader) Uint() int {
	v := r.Uvarint()
	if v > math.MaxInt32 {
		r.fail("uvarint beyond 31 bits")
		return 0
	}
	return int(v)
}

// Uint32 reads a uvarint that must fit uint32.
func (r *Reader) Uint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.fail("uvarint beyond uint32")
		return 0
	}
	return uint32(v)
}

// Int32 reads a varint that must fit int32.
func (r *Reader) Int32() int32 {
	v := r.Varint()
	if int64(int32(v)) != v {
		r.fail("varint beyond int32")
		return 0
	}
	return int32(v)
}

// Float reads 8 bytes of IEEE-754 bits.
func (r *Reader) Float() float64 {
	if r.Remaining() < 8 {
		r.fail("truncated float")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(v)
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	if r.Remaining() < 1 || r.b[r.off] > 1 {
		r.fail("truncated or invalid bool")
		return false
	}
	v := r.b[r.off]
	r.off++
	return v == 1
}

// Raw returns the next n bytes. The slice aliases the reader's buffer.
func (r *Reader) Raw(n int) []byte {
	if n < 0 || n > r.Remaining() {
		r.fail("truncated byte string")
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// Bytes reads a length-prefixed byte string. The slice aliases the
// reader's buffer; a caller that keeps it past the buffer's life copies it.
func (r *Reader) Bytes() []byte { return r.Raw(r.Count(1)) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }
