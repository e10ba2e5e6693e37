package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"prompt/internal/wire"
)

// ErrConnClosed marks exchanges attempted or in flight on a multiplexed
// connection that has been closed (locally or by the peer).
var ErrConnClosed = errors.New("transport: connection closed")

// Pending is one in-flight multiplexed exchange. Await blocks until the
// reply with the matching correlation ID arrives, the connection fails,
// or the connection's timeout elapses.
type Pending interface {
	// Await returns the shard's reply. A wire.Error reply surfaces as a
	// non-nil error (of type *wire.Error). Await may be called once.
	Await() (wire.Msg, error)
}

// Beginner is the optional Conn extension for correlation-ID frame
// multiplexing: Begin sends the request and returns immediately, so a
// single shard connection can carry several in-flight exchanges at once.
//
// Frames are written in Begin call order — a caller that serializes its
// Begin calls (the coordinator holds the link lock across delta
// computation and Begin) gets the same gap-free intern-dictionary delta
// ordering as strict request-reply. The shard handles requests in
// arrival order; only the replies return out of order, matched to their
// waiters by correlation ID.
//
// Connections that do not implement Beginner (loopback) are driven with
// plain Exchange calls.
type Beginner interface {
	Begin(req wire.Msg) (Pending, error)
}

// muxConn multiplexes exchanges over one net.Conn. A writer mutex
// serializes sends (Begin order is frame order), a single reader
// goroutine dispatches Mux replies to waiters by correlation ID, and any
// stream error is sticky: it closes the connection and fails every
// pending and future exchange, so the caller's redial logic sees one
// coherent failure instead of a frame-by-frame trickle.
type muxConn struct {
	c       net.Conn
	timeout time.Duration

	// wmu serializes correlation-ID assignment and the frame write, so
	// the wire carries frames in Begin call order.
	wmu sync.Mutex
	enc *wire.Encoder

	// mu guards the demultiplexer state; never held across I/O (the
	// reader must be able to dispatch while a writer blocks in Encode).
	mu      sync.Mutex
	next    uint64
	pending map[uint64]chan muxReply
	err     error // sticky: first stream failure
}

type muxReply struct {
	msg wire.Msg
	err error
}

// newMuxConn wraps c and starts its reader goroutine. timeout bounds
// each frame write and each Await (0 = no bound).
func newMuxConn(c net.Conn, timeout time.Duration) *muxConn {
	m := &muxConn{
		c:       c,
		timeout: timeout,
		enc:     wire.NewEncoder(c),
		pending: make(map[uint64]chan muxReply),
	}
	go m.readLoop()
	return m
}

// Begin implements Beginner.
func (m *muxConn) Begin(req wire.Msg) (Pending, error) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	corr := m.next
	m.next++
	ch := make(chan muxReply, 1)
	m.pending[corr] = ch
	m.mu.Unlock()

	if m.timeout > 0 {
		if derr := m.c.SetWriteDeadline(time.Now().Add(m.timeout)); derr != nil {
			m.abandon(corr)
			m.fail(derr)
			return nil, derr
		}
	}
	// The envelope is built in place in the encoder's buffer.
	if err := m.enc.Encode(wire.WrapMux(corr, req)); err != nil {
		m.abandon(corr)
		// An oversized frame is refused before anything is written. A
		// partial write poisons the frame stream; fail the connection
		// rather than risk the peer misparsing the next frame.
		if !errors.Is(err, wire.ErrFrameSize) {
			m.fail(err)
		}
		return nil, err
	}
	return &muxPending{m: m, corr: corr, ch: ch}, nil
}

// Exchange implements Conn as Begin + Await.
func (m *muxConn) Exchange(req wire.Msg) (wire.Msg, error) {
	p, err := m.Begin(req)
	if err != nil {
		return nil, err
	}
	return p.Await()
}

// Close implements Conn: it closes the underlying connection and fails
// every pending exchange with ErrConnClosed.
func (m *muxConn) Close() error {
	m.fail(ErrConnClosed)
	return nil
}

// abandon forgets a correlation ID whose request never made it out.
func (m *muxConn) abandon(corr uint64) {
	m.mu.Lock()
	delete(m.pending, corr)
	m.mu.Unlock()
}

// fail records the sticky error, closes the connection (unblocking the
// reader), and delivers the failure to every waiter. Only the first
// caller's error sticks.
func (m *muxConn) fail(err error) {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return
	}
	m.err = err
	waiters := m.pending
	m.pending = nil
	m.mu.Unlock()
	_ = m.c.Close()
	for _, ch := range waiters {
		ch <- muxReply{err: err}
	}
}

// readLoop decodes reply frames and routes each to its waiter. It exits
// on the first decode failure, which fails the whole connection: frames
// on a stream share framing state, so no later reply can be trusted.
func (m *muxConn) readLoop() {
	dec := wire.NewDecoder(bufio.NewReaderSize(m.c, 64<<10))
	for {
		msg, err := dec.Decode()
		if err != nil {
			m.fail(ErrConnClosed)
			return
		}
		env, ok := msg.(*wire.Mux)
		if !ok {
			m.fail(fmt.Errorf("transport: unexpected %v frame on multiplexed connection", msg.WireType()))
			return
		}
		// The envelope's Body aliases the decoder's buffer, so it is
		// unwrapped before the next Decode, into a message of its own:
		// the waiter reads it after this loop has moved on.
		inner, err := env.Unwrap()
		if err != nil {
			m.fail(err)
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[env.Corr]
		delete(m.pending, env.Corr)
		m.mu.Unlock()
		if ok {
			ch <- muxReply{msg: inner}
		}
	}
}

// muxPending is one in-flight exchange's waiter handle.
type muxPending struct {
	m    *muxConn
	corr uint64
	ch   chan muxReply
}

// Await implements Pending.
func (p *muxPending) Await() (wire.Msg, error) {
	var r muxReply
	if p.m.timeout > 0 {
		timer := time.NewTimer(p.m.timeout)
		defer timer.Stop()
		select {
		case r = <-p.ch:
		case <-timer.C:
			// The stream is now desynchronized from the caller's point of
			// view; fail the connection so every lane redials coherently.
			p.m.fail(fmt.Errorf("transport: exchange timed out after %v", p.m.timeout))
			r = <-p.ch
		}
	} else {
		r = <-p.ch
	}
	if r.err != nil {
		return nil, r.err
	}
	if e, ok := r.msg.(*wire.Error); ok {
		return nil, e
	}
	return r.msg, nil
}
