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
	// Body is the inner frame body (version byte onward).
	Body []byte
}

// WrapMux envelopes inner under the given correlation ID.
func WrapMux(corr uint64, inner Msg) (*Mux, error) {
	frame, err := Marshal(inner)
	if err != nil {
		return nil, err
	}
	return &Mux{Corr: corr, Body: frame[4:]}, nil
}

// Unwrap decodes the inner message.
func (m *Mux) Unwrap() (Msg, error) {
	inner, err := Unmarshal(m.Body)
	if err != nil {
		return nil, fmt.Errorf("wire: mux corr %d: %w", m.Corr, err)
	}
	return inner, nil
}

// WireType implements Msg.
func (m *Mux) WireType() Type { return TypeMux }

func (m *Mux) append(b []byte) []byte {
	b = codec.AppendUvarint(b, m.Corr)
	return codec.AppendBytes(b, m.Body)
}

func (m *Mux) decode(r *codec.Reader) {
	m.Corr = r.Uvarint()
	// Copy out of the decoder's reusable frame buffer: the inner body may
	// outlive this Decode call (the demultiplexer hands it to a waiter).
	m.Body = append([]byte(nil), r.Bytes()...)
}
