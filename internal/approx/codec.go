package approx

import (
	"errors"
	"fmt"

	"prompt/internal/codec"
	"prompt/internal/tuple"
)

// codecVersion is the leading byte of every encoded estimator.
const codecVersion = 1

// ErrCodec reports a malformed or truncated estimator image. Every
// decode failure wraps it, so transports and checkpoints can classify
// corruption without string matching.
var ErrCodec = errors.New("approx: bad estimator image")

// Encode serializes the estimator — spec, window, and the live window
// partials — into a self-contained image. The merged summary is not
// serialized: Decode rebuilds it by replaying the same fold AddBatch
// performs, which is both smaller and bit-identical by construction.
//
// Layout (little-endian, varint integers, float64 as IEEE-754 bits):
//
//	[u8 version]
//	[string kind][uvarint k][uvarint depth][uvarint width]
//	[uvarint precision][uvarint seed]
//	[varint window]
//	[uvarint #partials] then per partial:
//	  [varint end][kind-specific payload]
//
// Kind payloads: Count-Min stores the non-zero cells as (row, col, val)
// triples plus the absorbed total; Space-Saving stores the canonical
// entry list plus the untracked-key offset; HLL stores the non-zero
// registers as (index, rank) pairs; samplers store the (key, value)
// items — their hash priorities are recomputed from the spec.
func (e *Estimator) Encode() []byte { return e.Append(nil) }

// Append appends the estimator's image (see Encode) to b.
func (e *Estimator) Append(b []byte) []byte {
	b = append(b, codecVersion)
	b = codec.AppendString(b, string(e.spec.Kind))
	b = codec.AppendUvarint(b, uint64(e.spec.K))
	b = codec.AppendUvarint(b, uint64(e.spec.Depth))
	b = codec.AppendUvarint(b, uint64(e.spec.Width))
	b = codec.AppendUvarint(b, uint64(e.spec.Precision))
	b = codec.AppendUvarint(b, e.spec.Seed)
	b = codec.AppendVarint(b, int64(e.win))
	b = codec.AppendUvarint(b, uint64(len(e.parts)))
	for _, p := range e.parts {
		b = codec.AppendVarint(b, int64(p.end))
		switch e.spec.Kind {
		case CountMinKind:
			b = appendCountMin(b, p.cm)
		case SpaceSavingKind:
			b = appendSpaceSaving(b, p.ss)
		case HLLKind:
			b = appendHLL(b, p.hll)
		default:
			b = appendSample(b, p.samp)
		}
	}
	return b
}

func appendCountMin(b []byte, c *CountMin) []byte {
	cells := 0
	for _, row := range c.rows {
		for _, v := range row {
			if v != 0 {
				cells++
			}
		}
	}
	b = codec.AppendUvarint(b, uint64(cells))
	for i, row := range c.rows {
		for j, v := range row {
			if v == 0 {
				continue
			}
			b = codec.AppendUvarint(b, uint64(i))
			b = codec.AppendUvarint(b, uint64(j))
			b = codec.AppendFloat(b, v)
		}
	}
	return codec.AppendFloat(b, c.total)
}

func appendSpaceSaving(b []byte, s *SpaceSaving) []byte {
	entries := s.Entries()
	b = codec.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = codec.AppendString(b, e.Key)
		b = codec.AppendFloat(b, e.Est)
		b = codec.AppendFloat(b, e.Err)
	}
	return codec.AppendFloat(b, s.off)
}

func appendHLL(b []byte, h *HLL) []byte {
	nz := 0
	for _, r := range h.regs {
		if r != 0 {
			nz++
		}
	}
	b = codec.AppendUvarint(b, uint64(nz))
	for i, r := range h.regs {
		if r == 0 {
			continue
		}
		b = codec.AppendUvarint(b, uint64(i))
		b = codec.AppendUvarint(b, uint64(r))
	}
	return b
}

func appendSample(b []byte, s *Sample) []byte {
	items := s.Items()
	b = codec.AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = codec.AppendString(b, it.Key)
		b = codec.AppendFloat(b, it.Val)
	}
	return b
}

// Decode rebuilds an estimator from an image produced by Encode. The
// image is self-contained (spec and window travel inside it); callers
// holding an expected spec should compare against Spec() afterwards.
// Decode accepts exactly what Encode writes — minimal varints, a spec
// with its defaults applied, cells, registers, entries and items in the
// encoder's order — so a decoded image re-encodes to the same bytes.
func Decode(img []byte) (*Estimator, error) {
	if len(img) < 1 {
		return nil, fmt.Errorf("%w: empty image", ErrCodec)
	}
	if img[0] != codecVersion {
		return nil, fmt.Errorf("%w: version %d, speak %d", ErrCodec, img[0], codecVersion)
	}
	r := codec.NewReader(img[1:], ErrCodec)
	spec := Spec{Kind: Kind(r.Str()), K: r.Uint(), Depth: r.Uint(), Width: r.Uint(), Precision: r.Uint(), Seed: r.Uvarint()}
	win := tuple.Time(r.Varint())
	if r.Err() != nil {
		return nil, r.Err()
	}
	e, err := NewEstimator(spec, win)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCodec, err)
	}
	if e.spec != spec {
		return nil, fmt.Errorf("%w: spec %+v is not in its defaulted form", ErrCodec, spec)
	}
	nparts := r.Count(2)
	// Allocation guard beyond the per-element count checks: the dense
	// structures (Count-Min rows, HLL registers) are sized by the spec,
	// not the payload, so bound partials × cells before building any.
	const maxCells = 1 << 22
	switch {
	case spec.Kind == CountMinKind && nparts > 0 && nparts*spec.Depth*spec.Width > maxCells:
		return nil, fmt.Errorf("%w: %d partials of a %dx%d sketch exceed the decode budget",
			ErrCodec, nparts, spec.Depth, spec.Width)
	case spec.Kind == HLLKind && nparts > 0 && nparts<<spec.Precision > maxCells:
		return nil, fmt.Errorf("%w: %d partials of a 2^%d-register hll exceed the decode budget",
			ErrCodec, nparts, spec.Precision)
	}
	for i := 0; i < nparts && r.Err() == nil; i++ {
		p := partial{end: tuple.Time(r.Varint())}
		if i > 0 && p.end < e.parts[i-1].end {
			r.Failf("partial ends out of order")
		}
		switch spec.Kind {
		case CountMinKind:
			p.cm = decodeCountMin(r, spec)
		case SpaceSavingKind:
			p.ss = decodeSpaceSaving(r, spec)
		case HLLKind:
			p.hll = decodeHLL(r, spec)
		default:
			p.samp = decodeSample(r, spec, p.end)
		}
		e.parts = append(e.parts, p)
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	e.rebuild()
	return e, nil
}

// decodeCountMin reads the non-zero cells, which Encode writes in (row,
// col) order.
func decodeCountMin(r *codec.Reader, spec Spec) *CountMin {
	c := NewCountMin(spec.Depth, spec.Width, spec.Seed)
	prev := -1
	for range r.Count(10) {
		row, col := r.Uint(), r.Uint()
		cell := row*spec.Width + col
		switch {
		case row >= spec.Depth || col >= spec.Width:
			r.Failf("cell (%d,%d) outside %dx%d sketch", row, col, spec.Depth, spec.Width)
		case cell <= prev:
			r.Failf("cell (%d,%d) repeated or out of order", row, col)
		}
		v := r.Float()
		if r.Err() != nil {
			break
		}
		if v == 0 {
			r.Failf("zero cell (%d,%d)", row, col)
			break
		}
		c.rows[row][col], prev = v, cell
	}
	c.total = r.Float()
	return c
}

// decodeSpaceSaving reads the entries, which Encode writes in the
// canonical ranking order.
func decodeSpaceSaving(r *codec.Reader, spec Spec) *SpaceSaving {
	s := NewSpaceSaving(spec.K)
	n := r.Count(17)
	if n > spec.K {
		r.Failf("%d space-saving entries exceed budget %d", n, spec.K)
	}
	var prev SSEntry
	for i := 0; i < n && r.Err() == nil; i++ {
		e := &SSEntry{Key: r.Str(), Est: r.Float(), Err: r.Float()}
		if _, ok := s.counts[e.Key]; ok {
			r.Failf("duplicate space-saving key %q", e.Key)
		} else if i > 0 && !ssLess(prev.Key, prev.Est, e.Key, e.Est) {
			r.Failf("space-saving key %q out of ranking order", e.Key)
		}
		s.counts[e.Key] = e
		prev = *e
	}
	s.off = r.Float()
	return s
}

// decodeHLL reads the non-zero registers, which Encode writes in index
// order.
func decodeHLL(r *codec.Reader, spec Spec) *HLL {
	h := NewHLL(spec.Precision, spec.Seed)
	prev := -1
	for range r.Count(2) {
		idx, rank := r.Uint(), r.Uvarint()
		switch {
		case idx >= len(h.regs):
			r.Failf("register %d outside 2^%d", idx, spec.Precision)
		case idx <= prev:
			r.Failf("register %d repeated or out of order", idx)
		case rank == 0 || rank > uint64(64-spec.Precision+1):
			r.Failf("register rank %d outside [1, %d]", rank, 64-spec.Precision+1)
		}
		if r.Err() != nil {
			break
		}
		h.regs[idx], prev = uint8(rank), idx
	}
	return h
}

// decodeSample reads the items, which Encode writes in ascending key
// order.
func decodeSample(r *codec.Reader, spec Spec, end tuple.Time) *Sample {
	salt := uint64(0)
	if spec.Kind == ChainKind {
		salt = uint64(end)
	}
	s := NewSample(spec.Kind, spec.K, spec.Seed, salt)
	n := r.Count(9)
	if n > spec.K {
		r.Failf("%d sampled items exceed budget %d", n, spec.K)
	}
	prev := ""
	for i := 0; i < n && r.Err() == nil; i++ {
		key, val := r.Str(), r.Float()
		if i > 0 && key <= prev {
			r.Failf("sampled key %q repeated or out of order", key)
		}
		s.items[key] = &sampleItem{Item: Item{Key: key, Val: val}, pri: s.pri(key)}
		prev = key
	}
	return s
}
