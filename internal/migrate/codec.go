package migrate

import (
	"encoding/binary"
	"errors"
	"fmt"

	"prompt/internal/codec"
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
	b = codec.AppendVarint(b, int64(img.Slot))
	b = codec.AppendVarint(b, int64(img.Epoch))
	b = codec.AppendVarint(b, int64(img.From))
	b = codec.AppendVarint(b, int64(img.To))
	b = codec.AppendUvarint(b, uint64(len(img.Dict)))
	for _, d := range img.Dict {
		b = codec.AppendUvarint(b, uint64(d.ID))
		b = codec.AppendString(b, d.Key)
	}
	b = codec.AppendUvarint(b, uint64(len(img.Queries)))
	for _, q := range img.Queries {
		b = codec.AppendVarint(b, int64(q.Query))
		b = codec.AppendUvarint(b, uint64(len(q.Batches)))
		for _, bk := range q.Batches {
			b = codec.AppendVarint(b, int64(bk.End))
			b = codec.AppendUvarint(b, uint64(len(bk.Refs)))
			for i, ref := range bk.Refs {
				b = codec.AppendUvarint(b, uint64(ref))
				b = codec.AppendFloat(b, bk.Vals[i])
			}
		}
	}
	return b
}

// Decode parses an encoded image, failing cleanly on truncation, bad
// versions, length bombs and padded varints: it accepts only what Encode
// writes, so an image has one encoding and its digest identifies it.
func Decode(b []byte) (*Image, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: empty image", ErrImage)
	}
	if b[0] != imageVersion {
		return nil, fmt.Errorf("%w: version %d, speak %d", ErrImage, b[0], imageVersion)
	}
	r := codec.NewReader(b[1:], ErrImage)
	img := &Image{Slot: r.Int(), Epoch: r.Int(), From: r.Int(), To: r.Int()}
	img.Dict = make([]DictSlot, r.Count(2))
	// The keys are cut from one copy of the table's bytes rather than
	// copied out one by one. An image is short-lived and its usual
	// recipient already knows every key, so nothing outlives it; Apply
	// clones the keys it does have to intern.
	type span struct{ off, n int }
	spans := make([]span, len(img.Dict))
	tableStart := r.Offset()
	for i := range img.Dict {
		img.Dict[i].ID = r.Uint32()
		n := r.Count(1)
		spans[i] = span{r.Offset() - tableStart, n}
		r.Raw(n)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	table := string(b[1+tableStart : 1+r.Offset()])
	for i, sp := range spans {
		img.Dict[i].Key = table[sp.off : sp.off+sp.n]
	}
	img.Queries = make([]QueryImage, r.Count(2))
	for qi := range img.Queries {
		q := &img.Queries[qi]
		q.Query = r.Int()
		q.Batches = make([]window.SlotBatch, r.Count(2))
		// A query's columns share one backing array per kind, grown as the
		// batches are read and cut into per-batch pieces at the end.
		refs, vals := []uint32{}, []float64{}
		cuts := make([]int, len(q.Batches)+1)
		for bi := range q.Batches {
			q.Batches[bi].End = tuple.Time(r.Varint())
			for range r.Count(9) {
				d := r.Uvarint()
				if d >= uint64(len(img.Dict)) {
					r.Failf("dict reference %d out of range [0,%d)", d, len(img.Dict))
					break
				}
				refs, vals = append(refs, uint32(d)), append(vals, r.Float())
			}
			cuts[bi+1] = len(refs)
		}
		for bi := range q.Batches {
			from, to := cuts[bi], cuts[bi+1]
			q.Batches[bi].Refs, q.Batches[bi].Vals = refs[from:to:to], vals[from:to:to]
		}
	}
	if err := r.End(); err != nil {
		return nil, err
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
