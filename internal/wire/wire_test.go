package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"prompt/internal/tuple"
)

// sampleMsgs returns one fully-populated instance of every message type,
// plus zero-ish edge cases.
func sampleMsgs() []Msg {
	return []Msg{
		&Hello{Shard: 1, Shards: 3, Queries: []string{"wordcount", "sum"}, Interval: tuple.Second},
		&Hello{Queries: []string{}},
		&HelloAck{Shard: 2, DictSize: 1 << 20, Queries: 2},
		&MapTask{
			Batch: 7,
			Query: 1,
			Dict:  DictDelta{First: 4, Keys: []string{"alpha", "béta", ""}},
			Blocks: []Block{
				{
					ID: 0,
					Keys: []KeySlice{
						{KeyID: 4, Tuples: []Tuple{
							{TS: -5, Val: 1.5, Weight: 1},
							{TS: 1 << 40, Val: -0.25, Weight: 3},
						}},
						{KeyID: 5, Tuples: []Tuple{}},
					},
				},
				{ID: 3, Keys: []KeySlice{}},
			},
		},
		&MapTask{Dict: DictDelta{Keys: []string{}}, Blocks: []Block{}},
		&MapTaskCols{
			Batch: 9,
			Query: 0,
			Dict:  DictDelta{First: 2, Keys: []string{"gamma"}},
			Blocks: []ColBlock{
				{
					ID: 1,
					Keys: []tuple.KeySlice{
						{ID: 2, Cols: tuple.ColSlice{
							TS:   []tuple.Time{-5, 1 << 40, 1<<40 + 7},
							Vals: []float64{1.5, -0.25, 0},
							W:    []int32{1, 3, 2},
						}},
						{ID: 0, Cols: tuple.ColSlice{
							TS:   []tuple.Time{},
							Vals: []float64{},
							W:    []int32{},
						}},
					},
				},
				{ID: 4, Keys: []tuple.KeySlice{}},
			},
		},
		&MapTaskCols{Dict: DictDelta{Keys: []string{}}, Blocks: []ColBlock{}},
		&MapResult{
			Batch: 7,
			Query: 1,
			Outs: []BlockOut{
				{Clusters: []Cluster{
					{KeyID: 4, Size: 2, Val: 1.25},
					{KeyID: 9, Size: 1, Val: -3},
				}},
				{Clusters: []Cluster{}},
			},
			Factor: 0.875,
		},
		&ReduceTask{
			Batch: 8,
			Query: 0,
			Dict:  DictDelta{First: 0, Keys: []string{"k"}},
			Buckets: []Bucket{
				{Bucket: 2, Contribs: []tuple.Contrib{{ID: 0, Val: 4.5}, {ID: 7, Val: -1}}},
				{Bucket: 5, Contribs: []tuple.Contrib{}},
			},
		},
		&ReduceResult{
			Batch: 8,
			Query: 0,
			Outs: []BucketOut{
				{Bucket: 2, Entries: []tuple.Contrib{{ID: 0, Val: 3.5}}},
			},
			Factor: 1,
		},
		&Error{Msg: "shard 1: query index out of range"},
		&Error{},
		&Migrate{Batch: 6, Slot: 13, From: 1, To: 2, Image: []byte{1, 0xFF, 0, 42}, Digest: 1 << 60},
		&Migrate{Image: []byte{}},
		&MigrateAck{Slot: 13, Digest: 1 << 60, Keys: 9},
		&MigrateAck{},
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	msgs := sampleMsgs()
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			t.Fatalf("Encode(%v): %v", m.WireType(), err)
		}
	}
	dec := NewDecoder(&buf)
	for i, want := range msgs {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("Decode #%d (%v): %v", i, want.WireType(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip #%d (%v):\n got  %#v\n want %#v", i, want.WireType(), got, want)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Errorf("after all frames: got %v, want io.EOF", err)
	}
}

// TestMuxEnvelopeInPlace pins the envelope's bytes: built in place
// around every message, alone or through an encoder whose buffer carries
// the frames before it, it is byte for byte the envelope of the inner
// frame marshalled on its own, and it unwraps to the message it wraps.
func TestMuxEnvelopeInPlace(t *testing.T) {
	var stream bytes.Buffer
	enc := NewEncoder(&stream)
	var want []byte
	for i, m := range sampleMsgs() {
		corr := uint64(i) << (7 * (i % 6)) // one- to six-byte varints
		inner, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		copied, err := Marshal(&Mux{Corr: corr, Body: inner[4:]})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Marshal(WrapMux(corr, m))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, copied) {
			t.Fatalf("%v envelope built in place:\n got  %x\n want %x", m.WireType(), got, copied)
		}
		if err := enc.Encode(WrapMux(corr, m)); err != nil {
			t.Fatal(err)
		}
		want = append(want, copied...)

		env, err := UnmarshalFrame(got)
		if err != nil {
			t.Fatal(err)
		}
		back, err := env.(*Mux).Unwrap()
		if err != nil {
			t.Fatal(err)
		}
		if env.(*Mux).Corr != corr || !reflect.DeepEqual(back, m) {
			t.Errorf("%v envelope unwraps to corr %d %#v", m.WireType(), env.(*Mux).Corr, back)
		}
	}
	if !bytes.Equal(stream.Bytes(), want) {
		t.Error("envelopes encoded through one encoder differ from the envelopes marshalled alone")
	}
}

// TestDecoderReusesTaskStorage: a decoder decodes each task frame into
// the storage the last one of its kind left, and what it returns reads
// back as the frame it decoded, however the frames before it were shaped.
func TestDecoderReusesTaskStorage(t *testing.T) {
	var msgs []Msg
	for _, m := range sampleMsgs() {
		switch m.(type) {
		case *MapTaskCols, *ReduceTask:
			msgs = append(msgs, m)
		}
	}
	msgs = append(msgs, msgs...) // every shape follows every other
	msgs = append(msgs, msgs[0])
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, m := range msgs {
		if err := enc.Encode(WrapMux(1, m)); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	var first Msg
	for i, want := range msgs {
		env, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Unwrap(env.(*Mux))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame %d (%v): got %#v, want %#v", i, want.WireType(), got, want)
		}
		if i == 0 {
			first = got
		} else if _, ok := got.(*MapTaskCols); ok && got != first {
			t.Errorf("frame %d: map task decoded into fresh storage", i)
		}
	}
}

func TestMarshalUnmarshalFrame(t *testing.T) {
	for _, want := range sampleMsgs() {
		frame, err := Marshal(want)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", want.WireType(), err)
		}
		got, err := UnmarshalFrame(frame)
		if err != nil {
			t.Fatalf("UnmarshalFrame(%v): %v", want.WireType(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: got %#v, want %#v", want.WireType(), got, want)
		}
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	frame, err := Marshal(&Error{Msg: "x"})
	if err != nil {
		t.Fatal(err)
	}
	frame[4] = Version + 1 // version byte follows the 4-byte length
	if _, err := UnmarshalFrame(frame); !errors.Is(err, ErrVersion) {
		t.Errorf("got %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	frame, err := Marshal(&Error{Msg: "x"})
	if err != nil {
		t.Fatal(err)
	}
	frame[5] = 0xEE
	if _, err := UnmarshalFrame(frame); !errors.Is(err, ErrType) {
		t.Errorf("got %v, want ErrType", err)
	}
}

// retiredBodies are frame bodies of the two retired types: a batch report
// (type 7) and an estimator image (type 13), each full and empty.
func retiredBodies() [][]byte {
	return [][]byte{
		{Version, 7, 24, 0xD0, 0x0F, 0xA0, 0x1F, 0x90, 0x4E, 0xF0, 0x01},
		{Version, 7},
		{Version, 13, 2, 8, 'c', 'o', 'u', 'n', 't', 'm', 'i', 'n', 4, 1, 0, 0xFF, 7},
		{Version, 13, 0, 0, 0},
	}
}

// TestDecodeRejectsRetiredTypes: the report and sketch frames are gone and
// their type numbers stay reserved, so their bodies fail with ErrType.
func TestDecodeRejectsRetiredTypes(t *testing.T) {
	for _, body := range retiredBodies() {
		if _, err := Unmarshal(body); !errors.Is(err, ErrType) {
			t.Errorf("type %d: got %v, want ErrType", body[1], err)
		}
	}
	if TypeMux != 12 || TypeError != 8 {
		t.Errorf("frame types renumbered: mux %d, error %d", TypeMux, TypeError)
	}
}

// TestDecodeRejectsPaddedVarint: a varint padded with a zero continuation
// byte decodes to the same value but is not what Marshal writes, so the
// frame is refused rather than accepted with two encodings.
func TestDecodeRejectsPaddedVarint(t *testing.T) {
	frame, err := Marshal(&HelloAck{Shard: 1, DictSize: 2, Queries: 3})
	if err != nil {
		t.Fatal(err)
	}
	body := frame[4:]
	padded := append([]byte{body[0], body[1], body[2] | 0x80, 0}, body[3:]...)
	if _, err := Unmarshal(padded); !errors.Is(err, ErrTruncated) {
		t.Errorf("padded varint: got %v, want ErrTruncated", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	full, err := Marshal(&MapTask{
		Dict:   DictDelta{Keys: []string{"key"}},
		Blocks: []Block{{ID: 1, Keys: []KeySlice{{KeyID: 0, Tuples: []Tuple{{TS: 1, Val: 2, Weight: 1}}}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix of the body must fail decode, not panic.
	body := full[4:]
	for n := 2; n < len(body); n++ {
		if _, err := Unmarshal(body[:n]); err == nil {
			t.Errorf("Unmarshal of %d/%d-byte prefix unexpectedly succeeded", n, len(body))
		}
	}
}

func TestDecodeRejectsLengthBomb(t *testing.T) {
	// A MapTask whose dict announces 2^30 keys in a 16-byte payload must
	// be rejected before any allocation.
	body := []byte{Version, byte(TypeMapTask),
		0, 0, // batch, query
		0,                         // dict first
		0x80, 0x80, 0x80, 0x80, 4, // dict key count: 2^30
	}
	if _, err := Unmarshal(body); !errors.Is(err, ErrTruncated) {
		t.Errorf("got %v, want ErrTruncated", err)
	}
}

func TestDecoderRejectsOversizeFrame(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF} // 4 GiB body announcement
	_, err := NewDecoder(bytes.NewReader(hdr)).Decode()
	if !errors.Is(err, ErrFrameSize) {
		t.Errorf("got %v, want ErrFrameSize", err)
	}
}

func TestErrorImplementsError(t *testing.T) {
	var e error = &Error{Msg: "boom"}
	if e.Error() != "wire: shard error: boom" {
		t.Errorf("got %q", e.Error())
	}
}
