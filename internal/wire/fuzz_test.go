package wire

import (
	"bytes"
	"testing"
)

// FuzzWireFrame feeds arbitrary bytes to the frame decoder. Properties:
// decoding never panics or over-allocates (the length guards make a
// corrupt frame fail fast), and any body that does decode re-marshals to
// exactly the same bytes (one encoding per message).
func FuzzWireFrame(f *testing.F) {
	for _, m := range sampleMsgs() {
		frame, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	env, err := Marshal(WrapMux(300, sampleMsgs()[5])) // a map task in its envelope
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env[4:])
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version, byte(TypeMapTask)})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	for _, body := range retiredBodies() {
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		checkCanonical(t, body)
	})
}

// FuzzColumnsFrame concentrates the fuzzer on the columnar task frame:
// every input is decoded as a MapTaskCols body (the delta-timestamp and
// column-length guards are the newest decode surface), with the same
// never-panic and canonical-round-trip properties as FuzzWireFrame.
func FuzzColumnsFrame(f *testing.F) {
	for _, m := range sampleMsgs() {
		if _, ok := m.(*MapTaskCols); !ok {
			continue
		}
		frame, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:][2:]) // payload without version/type bytes
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, payload []byte) {
		body := append([]byte{Version, byte(TypeMapTaskCols)}, payload...)
		checkCanonical(t, body)
	})
}

// FuzzMigrateFrame concentrates the fuzzer on the state-migration frame:
// every input is decoded as a Migrate body (the opaque-image length guard
// is the newest decode surface), with the same never-panic and canonical
// round-trip properties as FuzzWireFrame.
func FuzzMigrateFrame(f *testing.F) {
	for _, m := range sampleMsgs() {
		if _, ok := m.(*Migrate); !ok {
			continue
		}
		frame, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:][2:]) // payload without version/type bytes
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, payload []byte) {
		body := append([]byte{Version, byte(TypeMigrate)}, payload...)
		checkCanonical(t, body)
	})
}

// checkCanonical asserts the codec's fuzz properties on one frame body:
// decoding never panics, and any body that decodes re-marshals to the
// same bytes. Comparing bytes is exact even for NaN payloads, where
// DeepEqual would balk.
func checkCanonical(t *testing.T, body []byte) {
	t.Helper()
	m, err := Unmarshal(body)
	if err != nil {
		return
	}
	frame, err := Marshal(m)
	if err != nil {
		t.Fatalf("re-encode of decoded %v failed: %v", m.WireType(), err)
	}
	if !bytes.Equal(frame[4:], body) {
		t.Fatalf("accepted non-canonical %v body:\n in  %x\n out %x", m.WireType(), body, frame[4:])
	}
}
