package codec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

var errTest = errors.New("test: bad payload")

// TestRoundTrip writes one value of every kind and reads it back.
func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 300)
	b = AppendVarint(b, -7)
	b = AppendFloat(b, math.Inf(-1))
	b = AppendString(b, "héllo")
	b = AppendBytes(b, []byte{0, 1})
	b = AppendBool(b, true)
	b = AppendVarint(b, math.MinInt32)
	b = AppendUvarint(b, math.MaxUint32)
	b = AppendUvarint(b, math.MaxInt32)
	b = AppendVarint(b, math.MaxInt64)
	r := NewReader(b, errTest)
	if v := r.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -7 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Float(); !math.IsInf(v, -1) {
		t.Errorf("Float = %v", v)
	}
	if v := r.Str(); v != "héllo" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{0, 1}) {
		t.Errorf("Bytes = %v", v)
	}
	if !r.Bool() {
		t.Error("Bool = false")
	}
	if v := r.Int32(); v != math.MinInt32 {
		t.Errorf("Int32 = %d", v)
	}
	if v := r.Uint32(); v != math.MaxUint32 {
		t.Errorf("Uint32 = %d", v)
	}
	if v := r.Uint(); v != math.MaxInt32 {
		t.Errorf("Uint = %d", v)
	}
	if v := r.Varint(); v != math.MaxInt64 {
		t.Errorf("Varint = %d", v)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

// TestRejects: every malformed input latches an error wrapping the
// caller's sentinel, and the reads after it return zero values.
func TestRejects(t *testing.T) {
	cases := map[string]struct {
		in   []byte
		read func(r *Reader)
	}{
		"padded uvarint":       {[]byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }},
		"padded zero":          {[]byte{0x80, 0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"padded varint":        {[]byte{0x82, 0x00}, func(r *Reader) { r.Varint() }},
		"truncated varint":     {[]byte{0x80}, func(r *Reader) { r.Varint() }},
		"overflowing uvarint":  {bytes.Repeat([]byte{0xFF}, 11), func(r *Reader) { r.Uvarint() }},
		"truncated float":      {[]byte{1, 2, 3}, func(r *Reader) { r.Float() }},
		"bool byte 2":          {[]byte{2}, func(r *Reader) { r.Bool() }},
		"string past the end":  {[]byte{5, 'a'}, func(r *Reader) { r.Str() }},
		"count bomb":           {AppendUvarint(nil, 1<<40), func(r *Reader) { r.Count(1) }},
		"count over min bytes": {[]byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count(2) }},
		"uint over 31 bits":    {AppendUvarint(nil, math.MaxInt32+1), func(r *Reader) { r.Uint() }},
		"uint32 overflow":      {AppendUvarint(nil, math.MaxUint32+1), func(r *Reader) { r.Uint32() }},
		"int32 overflow":       {AppendVarint(nil, math.MaxInt32+1), func(r *Reader) { r.Int32() }},
		"negative raw":         {[]byte{1}, func(r *Reader) { r.Raw(-1) }},
		"trailing bytes":       {[]byte{1, 2}, func(r *Reader) { r.Uvarint() }},
	}
	for name, c := range cases {
		r := NewReader(c.in, errTest)
		c.read(r)
		if err := r.End(); !errors.Is(err, errTest) {
			t.Errorf("%s: got %v, want the sentinel", name, err)
		}
		if r.Remaining() != 0 {
			t.Errorf("%s: %d bytes left after a failure", name, r.Remaining())
		}
	}
}

// TestStickyError: the first failure is the one reported, and every read
// after it fails quietly with a zero value.
func TestStickyError(t *testing.T) {
	r := NewReader(append([]byte{2}, AppendUvarint(nil, 9)...), errTest)
	r.Bool()
	first := r.Err()
	if first == nil {
		t.Fatal("bad bool accepted")
	}
	if v := r.Uvarint(); v != 0 {
		t.Errorf("read after a failure = %d, want 0", v)
	}
	if r.Failf("later"); r.Err() != first {
		t.Errorf("error replaced: %v, want %v", r.Err(), first)
	}
}

// TestAppendFramedMatchesAppendBytes: building a payload in place writes
// the bytes AppendBytes writes for the same payload built on its own, at
// every prefix length (1, 2 and 3 varint bytes) and with or without
// spare capacity behind b.
func TestAppendFramedMatchesAppendBytes(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384, 70000} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + 3)
		}
		fill := func(b []byte) []byte { return append(b, payload...) }
		for _, head := range [][]byte{nil, {9, 8, 7}, append(make([]byte, 0, n+64), 5)} {
			want := AppendBytes(append([]byte(nil), head...), payload)
			got := AppendFramed(head, fill)
			if !bytes.Equal(got, want) {
				t.Fatalf("payload %d bytes after %d-byte head: framed in place differs from AppendBytes", n, len(head))
			}
			r := NewReader(got[len(head):], errTest)
			if p := r.Bytes(); !bytes.Equal(p, payload) || r.End() != nil {
				t.Fatalf("payload %d bytes: reads back %d bytes, end %v", n, len(p), r.End())
			}
		}
	}
}
