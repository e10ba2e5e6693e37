package migrate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"prompt/internal/tuple"
	"prompt/internal/window"
)

// imageVersion tags the image encoding so a future layout change fails
// cleanly instead of misparsing (the same asymmetric-version tolerance
// internal/wire applies to frames).
const imageVersion = 1

// ErrImage reports a malformed or truncated migration image.
var ErrImage = errors.New("migrate: malformed image")

// Encode serializes the image: varint-coded integers (zigzag where the
// domain is signed), length-prefixed strings, IEEE-754 bits for floats,
// every length validated against the remaining payload on decode.
func (img *Image) Encode() []byte {
	// Sized up front from the element counts (per entry, a reference no
	// longer than the table length's own varint plus eight float bytes), so
	// a large slot encodes without regrowing.
	refLen := 1
	for n := len(img.Dict) >> 7; n > 0; n >>= 7 {
		refLen++
	}
	size := 1 + 6*binary.MaxVarintLen64
	for _, d := range img.Dict {
		size += 2*binary.MaxVarintLen32 + len(d.Key)
	}
	for _, q := range img.Queries {
		size += 2 * binary.MaxVarintLen64
		for _, bk := range q.Batches {
			size += 2*binary.MaxVarintLen64 + len(bk.Refs)*(refLen+8)
		}
	}
	b := append(make([]byte, 0, size), imageVersion)
	b = binary.AppendVarint(b, int64(img.Slot))
	b = binary.AppendVarint(b, int64(img.Epoch))
	b = binary.AppendVarint(b, int64(img.From))
	b = binary.AppendVarint(b, int64(img.To))
	b = binary.AppendUvarint(b, uint64(len(img.Dict)))
	for _, d := range img.Dict {
		b = binary.AppendUvarint(b, uint64(d.ID))
		b = binary.AppendUvarint(b, uint64(len(d.Key)))
		b = append(b, d.Key...)
	}
	b = binary.AppendUvarint(b, uint64(len(img.Queries)))
	for _, q := range img.Queries {
		b = binary.AppendVarint(b, int64(q.Query))
		b = binary.AppendUvarint(b, uint64(len(q.Batches)))
		for _, bk := range q.Batches {
			b = binary.AppendVarint(b, int64(bk.End))
			b = binary.AppendUvarint(b, uint64(len(bk.Refs)))
			for i, ref := range bk.Refs {
				b = binary.AppendUvarint(b, uint64(ref))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(bk.Vals[i]))
			}
		}
	}
	return b
}

// imgReader is a bounds-checked cursor over an encoded image.
type imgReader struct {
	b   []byte
	off int
}

func (r *imgReader) remaining() int { return len(r.b) - r.off }

func (r *imgReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || !r.minimal(n) {
		return 0, ErrImage
	}
	r.off += n
	return v, nil
}

func (r *imgReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 || !r.minimal(n) {
		return 0, ErrImage
	}
	r.off += n
	return v, nil
}

// minimal reports whether the n-byte varint at the cursor is the shortest
// encoding of its value: a padded one ends in a zero byte. Encode never
// pads, and Decode accepts only what Encode writes, so an image has one
// encoding and its digest identifies it.
func (r *imgReader) minimal(n int) bool {
	return n == 1 || r.b[r.off+n-1] != 0
}

func (r *imgReader) intv() (int, error) {
	v, err := r.varint()
	if err != nil {
		return 0, err
	}
	if int64(int(v)) != v {
		return 0, fmt.Errorf("%w: varint %d overflows int", ErrImage, v)
	}
	return int(v), nil
}

// count reads an element count whose encoding occupies at least minBytes
// bytes per element, rejecting counts the payload cannot hold.
func (r *imgReader) count(minBytes int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if v > uint64(r.remaining()/minBytes) {
		return 0, fmt.Errorf("%w: count %d exceeds payload", ErrImage, v)
	}
	return int(v), nil
}

func (r *imgReader) float() (float64, error) {
	if r.remaining() < 8 {
		return 0, ErrImage
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(v), nil
}

// Decode parses an encoded image, failing cleanly on truncation, bad
// versions, and length bombs.
func Decode(b []byte) (*Image, error) {
	if len(b) < 1 {
		return nil, ErrImage
	}
	if b[0] != imageVersion {
		return nil, fmt.Errorf("%w: version %d, speak %d", ErrImage, b[0], imageVersion)
	}
	r := &imgReader{b: b, off: 1}
	img := &Image{}
	var err error
	if img.Slot, err = r.intv(); err != nil {
		return nil, err
	}
	if img.Epoch, err = r.intv(); err != nil {
		return nil, err
	}
	if img.From, err = r.intv(); err != nil {
		return nil, err
	}
	if img.To, err = r.intv(); err != nil {
		return nil, err
	}
	nd, err := r.count(2)
	if err != nil {
		return nil, err
	}
	img.Dict = make([]DictSlot, nd)
	// The keys are cut from one copy of the table's bytes rather than
	// copied out one by one. An image is short-lived and its usual
	// recipient already knows every key, so nothing outlives it; Apply
	// clones the keys it does have to intern.
	type span struct{ off, n int }
	spans := make([]span, nd)
	tableStart := r.off
	for i := range img.Dict {
		id, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if id > math.MaxUint32 {
			return nil, fmt.Errorf("%w: dict id %d overflows uint32", ErrImage, id)
		}
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(r.remaining()) {
			return nil, ErrImage
		}
		img.Dict[i].ID = uint32(id)
		spans[i] = span{r.off - tableStart, int(n)}
		r.off += int(n)
	}
	table := string(r.b[tableStart:r.off])
	for i, sp := range spans {
		img.Dict[i].Key = table[sp.off : sp.off+sp.n]
	}
	nq, err := r.count(2)
	if err != nil {
		return nil, err
	}
	img.Queries = make([]QueryImage, nq)
	for qi := range img.Queries {
		q := &img.Queries[qi]
		if q.Query, err = r.intv(); err != nil {
			return nil, err
		}
		nb, err := r.count(2)
		if err != nil {
			return nil, err
		}
		q.Batches = make([]window.SlotBatch, nb)
		// A query's columns share one backing array per kind, grown as the
		// batches are read and cut into per-batch pieces at the end.
		refs, vals := []uint32{}, []float64{}
		cuts := make([]int, nb+1)
		for bi := range q.Batches {
			end, err := r.varint()
			if err != nil {
				return nil, err
			}
			q.Batches[bi].End = tuple.Time(end)
			ne, err := r.count(9)
			if err != nil {
				return nil, err
			}
			for ei := 0; ei < ne; ei++ {
				d, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				if d >= uint64(len(img.Dict)) {
					return nil, fmt.Errorf("%w: dict reference %d out of range [0,%d)", ErrImage, d, len(img.Dict))
				}
				v, err := r.float()
				if err != nil {
					return nil, err
				}
				refs, vals = append(refs, uint32(d)), append(vals, v)
			}
			cuts[bi+1] = len(refs)
		}
		for bi := range q.Batches {
			from, to := cuts[bi], cuts[bi+1]
			q.Batches[bi].Refs, q.Batches[bi].Vals = refs[from:to:to], vals[from:to:to]
		}
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrImage, r.remaining())
	}
	return img, nil
}

// Digest is the FNV-1a hash of an encoded image — the fingerprint a
// migration recipient acknowledges so the sender can verify the state
// arrived intact.
func Digest(encoded []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(encoded); i++ {
		h ^= uint64(encoded[i])
		h *= prime64
	}
	return h
}
