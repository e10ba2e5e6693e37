// Package wire is the frame codec of the distributed runtime:
// length-prefixed, versioned frames carrying tuple blocks, intern-
// dictionary deltas, Map/Reduce task exchanges, back-pressure factors and
// slot hand-offs between a coordinator and its engine shards.
//
// Frame layout (little-endian):
//
//	[u32 body length][u8 version][u8 type][payload]
//
// Payloads are written with internal/codec's append helpers and read with
// its bounded reader: varint integers (zigzag where signed), length-
// prefixed strings, float64s as IEEE-754 bits. Key strings cross the wire
// at most once per connection: task frames carry an intern-dictionary
// delta (DictDelta) and every later reference is a uint32 id: the shard
// mirrors the engine's stream-lifetime intern.Dict, so wire IDs are engine
// IDs.
//
// A decoder rejects frames whose version it does not speak with
// ErrVersion instead of misparsing them, checks every length field against
// the remaining payload before allocating, and accepts only the minimal
// encoding of every value, so a frame that decodes re-marshals to the same
// bytes (fuzzed by FuzzWireFrame).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"prompt/internal/codec"
)

// Version is the frame format version this package speaks. Version 2
// dropped the per-batch dense key numbers from key slices and clusters.
const Version = 2

// MaxFrame bounds a frame body; larger announcements are rejected before
// allocation. 1 GiB comfortably holds the largest batch the engine
// produces while stopping length-bomb frames.
const MaxFrame = 1 << 30

// Sentinel decode errors.
var (
	// ErrVersion reports a frame with an unsupported version byte.
	ErrVersion = errors.New("wire: unsupported frame version")
	// ErrType reports a frame with an unknown type byte.
	ErrType = errors.New("wire: unknown frame type")
	// ErrTruncated reports a malformed payload: shorter than its fields
	// announce, a padded varint, a value out of range, or trailing bytes.
	ErrTruncated = errors.New("wire: truncated payload")
	// ErrFrameSize reports a frame body exceeding MaxFrame.
	ErrFrameSize = errors.New("wire: frame exceeds size bound")
)

// Type tags a frame's payload.
type Type uint8

// Frame types. The zero value is invalid so an all-zero frame never
// parses as a message. Types 7 and 13 are reserved: they tagged a batch-
// report frame and an estimator frame that nothing sent, and a decoder
// rejects them with ErrType.
const (
	TypeHello Type = iota + 1
	TypeHelloAck
	TypeMapTask
	TypeMapResult
	TypeReduceTask
	TypeReduceResult
	_ // reserved: report
	TypeError
	TypeMapTaskCols
	TypeMigrate
	TypeMigrateAck
	TypeMux
	_ // reserved: sketch
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeHelloAck:
		return "hello-ack"
	case TypeMapTask:
		return "map-task"
	case TypeMapResult:
		return "map-result"
	case TypeReduceTask:
		return "reduce-task"
	case TypeReduceResult:
		return "reduce-result"
	case TypeError:
		return "error"
	case TypeMapTaskCols:
		return "map-task-cols"
	case TypeMigrate:
		return "migrate"
	case TypeMigrateAck:
		return "migrate-ack"
	case TypeMux:
		return "mux"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Msg is one decoded frame payload.
type Msg interface {
	// WireType tags the message's frame.
	WireType() Type
	// append encodes the payload onto b.
	append(b []byte) []byte
	// decode parses the payload from r, whose sticky error the caller
	// checks.
	decode(r *codec.Reader)
}

// --- Encoder / Decoder ---------------------------------------------------

// Encoder writes frames onto a stream. Each Encode emits exactly one
// Write call, so frames never interleave even when the underlying writer
// is an unbuffered socket shared with a deadline manager. Not safe for
// concurrent use; connections serialize sends.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Encode frames and writes one message.
func (e *Encoder) Encode(m Msg) error {
	b := e.buf[:0]
	b = append(b, 0, 0, 0, 0) // length placeholder
	b = append(b, Version, byte(m.WireType()))
	b = m.append(b)
	body := len(b) - 4
	if body > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameSize, body)
	}
	binary.LittleEndian.PutUint32(b[:4], uint32(body))
	e.buf = b[:0] // recycle the arena across frames
	_, err := e.w.Write(b)
	return err
}

// Marshal encodes one message into a standalone frame (header included).
// It is Encode without a stream — the transports that carry whole frames
// as discrete messages (Loopback) use it.
func Marshal(m Msg) ([]byte, error) {
	b := make([]byte, 4, 64)
	b = append(b, Version, byte(m.WireType()))
	b = m.append(b)
	body := len(b) - 4
	if body > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameSize, body)
	}
	binary.LittleEndian.PutUint32(b[:4], uint32(body))
	return b, nil
}

// Decoder reads frames from a stream. Not safe for concurrent use.
type Decoder struct {
	r   io.Reader
	hdr [4]byte
	buf []byte
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Decode reads and parses one frame. io.EOF is returned unwrapped when
// the stream ends cleanly between frames.
func (d *Decoder) Decode() (Msg, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(d.hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	if n < 2 {
		return nil, fmt.Errorf("%w: %d-byte body", ErrTruncated, n)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	body := d.buf[:n]
	if _, err := io.ReadFull(d.r, body); err != nil {
		return nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	return Unmarshal(body)
}

// Unmarshal parses one frame body (version byte onward, without the
// length prefix).
func Unmarshal(body []byte) (Msg, error) {
	if len(body) < 2 {
		return nil, ErrTruncated
	}
	if body[0] != Version {
		return nil, fmt.Errorf("%w: got %d, speak %d", ErrVersion, body[0], Version)
	}
	var m Msg
	switch Type(body[1]) {
	case TypeHello:
		m = &Hello{}
	case TypeHelloAck:
		m = &HelloAck{}
	case TypeMapTask:
		m = &MapTask{}
	case TypeMapResult:
		m = &MapResult{}
	case TypeReduceTask:
		m = &ReduceTask{}
	case TypeReduceResult:
		m = &ReduceResult{}
	case TypeError:
		m = &Error{}
	case TypeMapTaskCols:
		m = &MapTaskCols{}
	case TypeMigrate:
		m = &Migrate{}
	case TypeMigrateAck:
		m = &MigrateAck{}
	case TypeMux:
		m = &Mux{}
	default:
		return nil, fmt.Errorf("%w: %d", ErrType, body[1])
	}
	r := codec.NewReader(body[2:], ErrTruncated)
	m.decode(r)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("wire: %v payload: %w", m.WireType(), err)
	}
	return m, nil
}

// UnmarshalFrame parses a standalone frame produced by Marshal (length
// prefix included).
func UnmarshalFrame(frame []byte) (Msg, error) {
	if len(frame) < 4 {
		return nil, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(frame[:4])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	if uint32(len(frame)-4) != n {
		return nil, fmt.Errorf("%w: header says %d bytes, frame carries %d", ErrTruncated, n, len(frame)-4)
	}
	return Unmarshal(frame[4:])
}
