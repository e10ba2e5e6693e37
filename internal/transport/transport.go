// Package transport moves wire frames between the coordinator and its
// engine shards. The stream backends multiplex: each request travels in
// a wire.Mux envelope tagged with a connection-unique correlation ID, so
// a single shard connection carries several in-flight task frames at
// once — parallel query jobs and pipelined batches overlap their
// exchanges instead of serializing on the connection. The shard still
// handles requests strictly in arrival order (which keeps the
// piggybacked intern-dictionary deltas gap-free); only the replies are
// matched back to their callers by ID.
//
// Three backends implement Transport:
//
//   - Loopback: handlers invoked on the caller's goroutine, with every
//     frame still marshalled through the wire codec, so the byte format is
//     exercised with zero scheduling nondeterminism. Strict request-reply
//     (no Beginner): the reference the multiplexed backends are
//     differentially tested against.
//   - Pipe: net.Pipe per shard with a serve-loop goroutine — real framing,
//     real reader/writer interleaving, no OS sockets.
//   - Net: TCP or unix-domain sockets with per-frame write deadlines and
//     dial-with-backoff — the promptd production path.
package transport

import (
	"fmt"
	"sync"

	"prompt/internal/wire"
)

// Handler is a shard's request processor: one reply frame per request
// frame. Implementations are called serially per connection; a handler
// shared by several connections must handle concurrent calls.
type Handler interface {
	Handle(req wire.Msg) (wire.Msg, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(req wire.Msg) (wire.Msg, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(req wire.Msg) (wire.Msg, error) { return f(req) }

// Conn is one coordinator→shard connection. Exchange is atomic: safe for
// concurrent use by parallel query jobs, which serialize on the
// connection.
type Conn interface {
	// Exchange sends req and returns the shard's reply. A wire.Error
	// reply surfaces as a non-nil error (of type *wire.Error).
	Exchange(req wire.Msg) (wire.Msg, error)
	Close() error
}

// Transport connects a coordinator to the shards of a topology.
type Transport interface {
	// Shards is the topology size.
	Shards() int
	// Dial opens (or reopens) the connection to one shard.
	Dial(shard int) (Conn, error)
	// Close releases every resource the transport holds.
	Close() error
}

// --- Loopback ------------------------------------------------------------

// Loopback is the deterministic in-process backend: Dial(i) yields a
// connection whose Exchange marshals the request through the wire codec,
// calls shard i's handler on the calling goroutine, and unmarshals the
// reply. No goroutines, and every decoded message owns its storage (the
// frame bytes go through one buffer per connection, reused) — the
// reference backend the others are differentially tested against.
type Loopback struct {
	handlers []Handler
}

// NewLoopback returns a loopback transport over the given shard handlers.
func NewLoopback(handlers ...Handler) *Loopback {
	return &Loopback{handlers: handlers}
}

// Shards implements Transport.
func (l *Loopback) Shards() int { return len(l.handlers) }

// Dial implements Transport.
func (l *Loopback) Dial(shard int) (Conn, error) {
	if shard < 0 || shard >= len(l.handlers) {
		return nil, fmt.Errorf("transport: loopback shard %d out of range [0,%d)", shard, len(l.handlers))
	}
	return &loopConn{h: l.handlers[shard]}, nil
}

// Close implements Transport.
func (l *Loopback) Close() error { return nil }

type loopConn struct {
	mu sync.Mutex
	h  Handler
	// buf holds the frame in flight, reused exchange after exchange.
	buf []byte
}

func (c *loopConn) Exchange(req wire.Msg) (wire.Msg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Round-trip the request through the codec so loopback runs exercise
	// the exact bytes a socket would carry.
	decoded, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	reply, herr := c.h.Handle(decoded)
	if herr != nil {
		reply = &wire.Error{Msg: herr.Error()}
	}
	out, err := c.roundTrip(reply)
	if err != nil {
		return nil, err
	}
	if e, ok := out.(*wire.Error); ok {
		return nil, e
	}
	return out, nil
}

// roundTrip encodes m into the connection's frame buffer and decodes it
// back into a message of its own.
func (c *loopConn) roundTrip(m wire.Msg) (wire.Msg, error) {
	frame, err := wire.AppendFrame(c.buf[:0], m)
	if err != nil {
		return nil, err
	}
	c.buf = frame
	return wire.UnmarshalFrame(frame)
}

func (c *loopConn) Close() error { return nil }
