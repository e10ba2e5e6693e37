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
//
// Who owns the bytes. An Encoder builds each frame in its own reused
// buffer, a Mux envelope's inner frame in place behind the correlation ID
// (WrapMux), and task frames are encoded straight from the engine's
// storage: a ColBlock's runs are the engine's tuple.KeySlices and a
// bucket's contributions its tuple.Contribs. A Decoder owns what it
// returns until its next Decode: a Mux's Body aliases the decoder's frame
// buffer, and the decoder's Unwrap decodes a task frame's lists and
// columns into storage it reuses frame after frame. Unmarshal,
// UnmarshalFrame and Mux.Unwrap return messages that own their storage —
// a Mux from Unmarshal aside, whose Body aliases the input — for callers
// that keep a message longer, such as a reader goroutine handing replies
// to their waiters.
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
	b, err := AppendFrame(e.buf[:0], m)
	if err != nil {
		return err
	}
	e.buf = b[:0] // recycle the arena across frames
	_, err = e.w.Write(b)
	return err
}

// AppendFrame appends m's frame (header included) to b and returns the
// extended slice: Encode without a stream, for callers that reuse one
// buffer frame after frame. On error b is returned unextended.
func AppendFrame(b []byte, m Msg) ([]byte, error) {
	at := len(b)
	b = append(b, 0, 0, 0, 0, Version, byte(m.WireType())) // length placeholder
	b = m.append(b)
	body := len(b) - at - 4
	if body > MaxFrame {
		return b[:at], fmt.Errorf("%w: %d bytes", ErrFrameSize, body)
	}
	binary.LittleEndian.PutUint32(b[at:], uint32(body))
	return b, nil
}

// Marshal encodes one message into a standalone frame (header included).
func Marshal(m Msg) ([]byte, error) {
	return AppendFrame(make([]byte, 0, 64), m)
}

// Decoder reads frames from a stream. Not safe for concurrent use.
//
// A decoder owns the storage of what it returns, and reuses it: a
// message from Decode, a Mux's Body and a message from the decoder's
// Unwrap are valid until the next Decode. A caller that keeps an inner
// message longer (hands it to another goroutine, say) unwraps with
// Mux.Unwrap instead, whose messages own their storage.
type Decoder struct {
	r   io.Reader
	hdr [4]byte
	buf []byte
	// task, arena and reduce hold the last task frames' lists and
	// columns, reused by the next.
	task   MapTaskCols
	arena  colArena
	reduce ReduceTask
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: r} }

// Decode reads and parses one frame. io.EOF is returned unwrapped when
// the stream ends cleanly between frames. The message is valid until the
// next Decode.
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
	return unmarshal(body, d)
}

// Unwrap decodes the inner message of m, an envelope this decoder
// returned, into the decoder's storage: valid until the next Decode.
func (d *Decoder) Unwrap(m *Mux) (Msg, error) { return m.unwrap(d) }

// Unmarshal parses one frame body (version byte onward, without the
// length prefix). The message owns its storage, apart from a Mux's Body,
// which aliases body.
func Unmarshal(body []byte) (Msg, error) { return unmarshal(body, nil) }

// unmarshal is Unmarshal, decoding a task frame into d's reused storage
// when d is not nil.
func unmarshal(body []byte, d *Decoder) (Msg, error) {
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
		if d != nil {
			m = &d.reduce
		} else {
			m = &ReduceTask{}
		}
	case TypeReduceResult:
		m = &ReduceResult{}
	case TypeError:
		m = &Error{}
	case TypeMapTaskCols:
		if d != nil {
			m = &d.task
		} else {
			m = &MapTaskCols{}
		}
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
	if task, ok := m.(*MapTaskCols); ok && d != nil {
		task.decodeInto(r, &d.arena)
	} else {
		m.decode(r)
	}
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
