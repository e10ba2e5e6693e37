package approx

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"prompt/internal/codec"
	"prompt/internal/tuple"
)

// TestSpaceSavingNaNEncodesDeterministically is the regression test for a
// ranking that was not a total order: with a NaN count among the entries,
// Entries — and so Encode — followed map iteration order, and one batch
// built 200 times encoded several ways. A budget below the key count also
// drives the eviction choice through the NaN.
func TestSpaceSavingNaNEncodesDeterministically(t *testing.T) {
	batch := map[string]float64{"a": 3, "b": math.NaN(), "c": 1, "d": 2, "e": 5}
	for _, k := range []int{0, 2} {
		seen := map[string]bool{}
		for i := 0; i < 200; i++ {
			e, err := NewEstimator(Spec{Kind: SpaceSavingKind, K: k}, tuple.Second)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddBatch(tuple.Second, batch); err != nil {
				t.Fatal(err)
			}
			seen[string(e.Encode())] = true
		}
		if len(seen) != 1 {
			t.Errorf("K=%d: 200 builds of one batch gave %d distinct encodings", k, len(seen))
		}
	}
}

// estimatorSeeds returns one encoded estimator of every kind, each holding
// two partials, and a Space-Saving image with a NaN count.
func estimatorSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	add := func(spec Spec, batches ...map[string]float64) {
		e, err := NewEstimator(spec, 2*tuple.Second)
		if err != nil {
			tb.Fatal(err)
		}
		for i, b := range batches {
			if err := e.AddBatch(tuple.Time(i+1)*tuple.Second, b); err != nil {
				tb.Fatal(err)
			}
		}
		out = append(out, e.Encode())
	}
	for _, kind := range Kinds() {
		add(Spec{Kind: kind, K: 4, Depth: 2, Width: 16, Precision: 4},
			map[string]float64{"a": 2, "b": 1, "c": 5}, map[string]float64{"a": 1, "d": 7})
	}
	add(Spec{Kind: SpaceSavingKind, K: 3}, map[string]float64{"a": 3, "b": math.NaN(), "c": 1, "d": 2})
	return out
}

// FuzzEstimator throws mutated images at Decode. It must never panic or
// over-allocate, and everything it accepts must re-encode to exactly the
// input bytes: one encoding per estimator, so a checkpoint that embeds one
// is deterministic too.
func FuzzEstimator(f *testing.F) {
	for _, img := range estimatorSeeds(f) {
		f.Add(img)
	}
	f.Add([]byte{})
	f.Add([]byte{codecVersion})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, img []byte) {
		e, err := Decode(img)
		if err != nil {
			if !errors.Is(err, ErrCodec) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if re := e.Encode(); !bytes.Equal(re, img) {
			t.Fatalf("accepted non-canonical %q image:\n in  %x\n out %x", e.Kind(), img, re)
		}
	})
}

// TestDecodeRejectsNonCanonicalImages: each case decodes to a state some
// canonical image also encodes, so accepting it would give that state two
// encodings (or, for a repeated cell, silently drop one).
func TestDecodeRejectsNonCanonicalImages(t *testing.T) {
	// specOf writes an image's spec and window; header adds one partial
	// ending at 1 s.
	specOf := func(kind Kind, k, depth, width, precision int) []byte {
		b := codec.AppendString([]byte{codecVersion}, string(kind))
		for _, v := range []int{k, depth, width, precision, 1} {
			b = codec.AppendUvarint(b, uint64(v))
		}
		return codec.AppendVarint(b, int64(tuple.Second))
	}
	header := func(kind Kind, k, depth, width, precision int) []byte {
		b := codec.AppendUvarint(specOf(kind, k, depth, width, precision), 1)
		return codec.AppendVarint(b, int64(tuple.Second))
	}
	cm := func(cells ...[3]float64) []byte {
		b := codec.AppendUvarint(header(CountMinKind, 32, 2, 16, 12), uint64(len(cells)))
		for _, c := range cells {
			b = codec.AppendUvarint(codec.AppendUvarint(b, uint64(c[0])), uint64(c[1]))
			b = codec.AppendFloat(b, c[2])
		}
		return codec.AppendFloat(b, 1)
	}
	hll := func(regs ...[2]int) []byte {
		b := codec.AppendUvarint(header(HLLKind, 32, 4, 2048, 4), uint64(len(regs)))
		for _, r := range regs {
			b = codec.AppendUvarint(codec.AppendUvarint(b, uint64(r[0])), uint64(r[1]))
		}
		return b
	}
	ss := func(entries ...SSEntry) []byte {
		b := codec.AppendUvarint(header(SpaceSavingKind, 4, 4, 2048, 12), uint64(len(entries)))
		for _, e := range entries {
			b = codec.AppendFloat(codec.AppendFloat(codec.AppendString(b, e.Key), e.Est), e.Err)
		}
		return codec.AppendFloat(b, 0)
	}
	sample := func(keys ...string) []byte {
		b := codec.AppendUvarint(header(ReservoirKind, 4, 4, 2048, 12), uint64(len(keys)))
		for _, k := range keys {
			b = codec.AppendFloat(codec.AppendString(b, k), 1)
		}
		return b
	}
	nan := math.NaN()
	good := map[string][]byte{
		"countmin":    cm([3]float64{0, 3, 1}, [3]float64{1, 0, nan}),
		"hll":         hll([2]int{2, 1}, [2]int{9, 3}),
		"spacesaving": ss(SSEntry{Key: "b", Est: 2}, SSEntry{Key: "a", Est: 1}, SSEntry{Key: "c", Est: nan}),
		"sample":      sample("a", "b"),
	}
	for name, img := range good {
		e, err := Decode(img)
		if err != nil {
			t.Fatalf("canonical %s image rejected: %v", name, err)
		}
		if !bytes.Equal(e.Encode(), img) {
			t.Fatalf("canonical %s image re-encodes differently", name)
		}
	}
	bad := map[string][]byte{
		"countmin duplicate cell":   cm([3]float64{0, 3, 1}, [3]float64{0, 3, 2}),
		"countmin cells reversed":   cm([3]float64{1, 0, 1}, [3]float64{0, 3, 1}),
		"countmin zero cell":        cm([3]float64{0, 3, 0}),
		"countmin negative zero":    cm([3]float64{0, 3, math.Copysign(0, -1)}),
		"hll duplicate register":    hll([2]int{2, 1}, [2]int{2, 3}),
		"hll registers reversed":    hll([2]int{9, 3}, [2]int{2, 1}),
		"spacesaving out of rank":   ss(SSEntry{Key: "a", Est: 1}, SSEntry{Key: "b", Est: 2}),
		"spacesaving tie reversed":  ss(SSEntry{Key: "b", Est: 1}, SSEntry{Key: "a", Est: 1}),
		"spacesaving NaN first":     ss(SSEntry{Key: "c", Est: nan}, SSEntry{Key: "a", Est: 1}),
		"spacesaving duplicate key": ss(SSEntry{Key: "a", Est: 2}, SSEntry{Key: "b", Est: 1}, SSEntry{Key: "a", Est: 0}),
		"sample keys reversed":      sample("b", "a"),
		"sample duplicate key":      sample("a", "a"),
		// A zero budget decodes to the defaulted one, which Encode writes
		// as 32: the image must carry the defaulted value.
		"spec not defaulted": codec.AppendFloat(codec.AppendUvarint(header(CountMinKind, 0, 2, 16, 12), 0), 0),
		// A partial count of 0 padded with a zero continuation byte.
		"padded varint": append(specOf(HLLKind, 32, 4, 2048, 4), 0x80, 0),
	}
	for name, img := range bad {
		if _, err := Decode(img); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: got %v, want ErrCodec", name, err)
		}
	}
}
