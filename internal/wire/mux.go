package wire

import (
	"fmt"

	"prompt/internal/codec"
)

// Mux is the correlation-ID envelope of multiplexed connections: it wraps
// one inner frame body so a single shard connection can carry several
// in-flight request/reply exchanges at once. The sender tags each request
// with a connection-unique Corr; the receiver processes requests in
// arrival order (preserving intern-dictionary delta ordering) and tags
// each reply with the request's Corr, so replies can return in any order
// without ambiguity.
//
// Body is a complete inner frame body — version byte onward, without the
// outer length prefix — exactly what Unmarshal parses. Wrapping rather
// than extending every message keeps the envelope orthogonal: any current
// or future frame type can travel multiplexed unchanged.
type Mux struct {
	// Corr correlates a reply with its request; unique per connection
	// among in-flight exchanges.
	Corr uint64
	// Body is the inner frame body (version byte onward). A decoded
	// envelope's Body aliases the bytes it was decoded from: a Decoder's
	// frame buffer, valid until the decoder's next Decode.
	Body []byte
	// inner is the message WrapMux wrapped; encoding writes its frame body
	// in place, so it is never marshalled on its own and copied.
	inner Msg
}

// WrapMux envelopes inner under the given correlation ID. The envelope
// holds inner itself: encoding it writes inner's frame body straight into
// the encoder's buffer, the same bytes a Body of Marshal(inner) without
// its length prefix would carry.
func WrapMux(corr uint64, inner Msg) *Mux {
	return &Mux{Corr: corr, inner: inner}
}

// Unwrap decodes the inner message from Body (an envelope WrapMux built
// has none: it is for encoding). The message owns its storage, so it
// outlives the bytes Body aliases.
func (m *Mux) Unwrap() (Msg, error) { return m.unwrap(nil) }

// unwrap decodes Body, into d's reused storage when d is not nil.
func (m *Mux) unwrap(d *Decoder) (Msg, error) {
	inner, err := unmarshal(m.Body, d)
	if err != nil {
		return nil, fmt.Errorf("wire: mux corr %d: %w", m.Corr, err)
	}
	return inner, nil
}

// WireType implements Msg.
func (m *Mux) WireType() Type { return TypeMux }

func (m *Mux) append(b []byte) []byte {
	b = codec.AppendUvarint(b, m.Corr)
	if m.inner == nil {
		return codec.AppendBytes(b, m.Body)
	}
	return codec.AppendFramed(b, func(b []byte) []byte {
		return m.inner.append(append(b, Version, byte(m.inner.WireType())))
	})
}

func (m *Mux) decode(r *codec.Reader) {
	m.Corr = r.Uvarint()
	m.Body = r.Bytes()
}
