package transport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"prompt/internal/wire"
)

// Serve runs a shard's request loop over one stream connection until the
// peer closes it (returns nil) or a transport error occurs. Requests are
// handled sequentially in arrival order — that order is what makes the
// intern-dictionary deltas piggybacked on task frames gap-free — and
// handler errors do not end the loop: they travel back as wire.Error
// frames and the next request is awaited.
//
// A wire.Mux request is unwrapped, handled, and its reply wrapped under
// the same correlation ID, so one connection serves several in-flight
// exchanges; bare frames get bare replies (strict request-reply).
//
// One frame is in hand at a time — decode, handle, encode — so the
// request lives in the connection's decoder storage (wire.Decoder): a map
// task's blocks and columns are decoded into the last one's. A handler
// must not keep a request, or slices of it, past its Handle call.
func Serve(c net.Conn, h Handler) error {
	dec := wire.NewDecoder(bufio.NewReaderSize(c, 64<<10))
	enc := wire.NewEncoder(c)
	for {
		req, err := dec.Decode()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		env, muxed := req.(*wire.Mux)
		if muxed {
			if req, err = dec.Unwrap(env); err != nil {
				return err
			}
		}
		reply, herr := h.Handle(req)
		if herr != nil {
			reply = &wire.Error{Msg: herr.Error()}
		}
		if muxed {
			reply = wire.WrapMux(env.Corr, reply)
		}
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}
}

// --- Pipe ----------------------------------------------------------------

// Pipe is the net.Pipe backend: real frame streams and reader/writer
// interleaving with no OS sockets, for tests that want the wire path
// without port management. Each Dial spawns a serve-loop goroutine on
// the pipe's far end.
type Pipe struct {
	handlers []Handler
	timeout  time.Duration

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

// NewPipe returns a pipe transport over the given shard handlers.
// timeout bounds each exchange (0 = no deadline).
func NewPipe(timeout time.Duration, handlers ...Handler) *Pipe {
	return &Pipe{handlers: handlers, timeout: timeout}
}

// Shards implements Transport.
func (p *Pipe) Shards() int { return len(p.handlers) }

// Dial implements Transport.
func (p *Pipe) Dial(shard int) (Conn, error) {
	if shard < 0 || shard >= len(p.handlers) {
		return nil, fmt.Errorf("transport: pipe shard %d out of range [0,%d)", shard, len(p.handlers))
	}
	client, server := net.Pipe()
	h := p.handlers[shard]
	p.mu.Lock()
	p.conns = append(p.conns, client, server)
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = Serve(server, h)
	}()
	return newMuxConn(client, p.timeout), nil
}

// Close implements Transport: closes every pipe end and waits for the
// serve loops to drain.
func (p *Pipe) Close() error {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	p.wg.Wait()
	return nil
}
