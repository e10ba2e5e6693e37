package transport

import (
	"bytes"
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"prompt/internal/tuple"
	"prompt/internal/wire"
)

// blockingHandler parks the first request on a gate channel and answers
// later requests immediately, echoing the batch number. It lets tests
// hold a reply hostage while more frames pile onto the connection.
type blockingHandler struct {
	gate    chan struct{} // closed to release the parked request
	blocked chan struct{} // signalled when the first request parks
	first   bool
}

func (h *blockingHandler) Handle(req wire.Msg) (wire.Msg, error) {
	m := req.(*wire.MapTask)
	if !h.first {
		h.first = true
		h.blocked <- struct{}{}
		<-h.gate
	}
	return &wire.MapResult{Batch: m.Batch, Query: m.Query, Outs: []wire.BlockOut{}, Factor: 1}, nil
}

// dialBlocking serves a blockingHandler on a unix socket (kernel-buffered,
// so queued frames do not block the sender) and dials it.
func dialBlocking(t *testing.T, h *blockingHandler, timeout time.Duration) Conn {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "shard.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		t.Cleanup(func() { c.Close() })
		_ = Serve(c, h)
	}()
	conn, err := NewNet([]string{addr}, WithTimeout(timeout)).Dial(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func mapTask(batch int) *wire.MapTask {
	return &wire.MapTask{Batch: batch, Dict: wire.DictDelta{Keys: []string{}}, Blocks: []wire.Block{}}
}

// TestMuxOverlappingFrames pins the multiplexing property itself: while
// one exchange's reply is withheld, further Begin calls complete and
// their frames queue on the same connection, and once released every
// waiter receives the reply matching its correlation ID.
func TestMuxOverlappingFrames(t *testing.T) {
	h := &blockingHandler{gate: make(chan struct{}), blocked: make(chan struct{}, 1)}
	conn := dialBlocking(t, h, 5*time.Second)
	bg := conn.(Beginner)

	p0, err := bg.Begin(mapTask(0))
	if err != nil {
		t.Fatal(err)
	}
	<-h.blocked // shard is now parked inside request 0

	// With request 0 unanswered, two more frames must still go out.
	done := make(chan Pending, 2)
	for b := 1; b <= 2; b++ {
		p, err := bg.Begin(mapTask(b))
		if err != nil {
			t.Fatalf("Begin(%d) with a reply outstanding: %v", b, err)
		}
		done <- p
	}
	if len(done) != 2 {
		t.Fatalf("%d of 2 overlapping Begins completed", len(done))
	}

	close(h.gate)
	if res, err := p0.Await(); err != nil {
		t.Fatalf("Await(0): %v", err)
	} else if mr := res.(*wire.MapResult); mr.Batch != 0 {
		t.Fatalf("reply batch %d for request 0", mr.Batch)
	}
	for b := 1; b <= 2; b++ {
		res, err := (<-done).Await()
		if err != nil {
			t.Fatalf("Await(%d): %v", b, err)
		}
		if mr := res.(*wire.MapResult); mr.Batch != b {
			t.Fatalf("reply batch %d for request %d", mr.Batch, b)
		}
	}
}

// TestMuxFailureFailsAllPending kills the connection with two frames in
// flight: both waiters must fail promptly (not hang on a reply that can
// never come) and later exchanges must fail fast with the sticky error.
func TestMuxFailureFailsAllPending(t *testing.T) {
	h := &blockingHandler{gate: make(chan struct{}), blocked: make(chan struct{}, 1)}
	conn := dialBlocking(t, h, 5*time.Second)
	bg := conn.(Beginner)

	p0, err := bg.Begin(mapTask(0))
	if err != nil {
		t.Fatal(err)
	}
	<-h.blocked
	p1, err := bg.Begin(mapTask(1))
	if err != nil {
		t.Fatal(err)
	}

	conn.Close()
	if _, err := p0.Await(); err == nil {
		t.Error("Await(0) succeeded on a closed connection")
	}
	if _, err := p1.Await(); err == nil {
		t.Error("Await(1) succeeded on a closed connection")
	}
	if _, err := conn.Exchange(mapTask(2)); !errors.Is(err, ErrConnClosed) {
		t.Errorf("Exchange after close = %v, want ErrConnClosed", err)
	}
	close(h.gate)
}

// TestMuxAwaitTimeout: a reply that never arrives bounds the caller's
// wait and fails the whole connection, so no lane hangs on a dead shard.
func TestMuxAwaitTimeout(t *testing.T) {
	h := &blockingHandler{gate: make(chan struct{}), blocked: make(chan struct{}, 1)}
	conn := dialBlocking(t, h, 50*time.Millisecond)

	start := time.Now()
	if _, err := conn.Exchange(mapTask(0)); err == nil {
		t.Fatal("Exchange succeeded with the handler parked")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	if _, err := conn.Exchange(mapTask(1)); err == nil {
		t.Error("Exchange after timeout succeeded; want sticky failure")
	}
	close(h.gate)
}

// TestServeBackToBackMapFrames sends two map frames of different shapes
// back to back through one serve loop over Pipe, with an echo handler, so
// each reply is built from the request's decoded storage. The serve loop
// decodes a frame into the storage the last one left; the first reply
// must still be, byte for byte, what it is when its frame travels alone,
// and so must the second.
func TestServeBackToBackMapFrames(t *testing.T) {
	echo := HandlerFunc(func(req wire.Msg) (wire.Msg, error) { return req, nil })
	first, second := colTask(1, 3, 40, 7), colTask(2, 5, 25, 3)
	alone := func(req wire.Msg) []byte {
		tr := NewPipe(5*time.Second, echo)
		defer tr.Close()
		conn, err := tr.Dial(0)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := conn.Exchange(req)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.Marshal(reply)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	want1, want2 := alone(first), alone(second)

	tr := NewPipe(5*time.Second, echo)
	defer tr.Close()
	conn, err := tr.Dial(0)
	if err != nil {
		t.Fatal(err)
	}
	bg := conn.(Beginner)
	p1, err := bg.Begin(first)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := bg.Begin(second)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p1.Await()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Await() // the second reply is in: r1 must not have moved
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		got  wire.Msg
		want []byte
	}{{r1, want1}, {r2, want2}} {
		frame, err := wire.Marshal(c.got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, c.want) {
			t.Errorf("reply %d back to back differs from the reply alone (%d vs %d bytes)", i+1, len(frame), len(c.want))
		}
	}
}

// colTask builds a map frame of blocks blocks, each of runs key runs of
// up to rows rows, its values and timestamps drawn from seed.
func colTask(seed, blocks, runs, rows int) *wire.MapTaskCols {
	m := &wire.MapTaskCols{Batch: seed, Dict: wire.DictDelta{Keys: []string{}}}
	x := uint32(seed)
	next := func() uint32 { x = x*1664525 + 1013904223; return x >> 8 }
	for b := 0; b < blocks; b++ {
		bl := wire.ColBlock{ID: b}
		for k := 0; k < runs; k++ {
			n := 1 + int(next())%rows
			cols := tuple.ColSlice{TS: make([]tuple.Time, n), Vals: make([]float64, n), W: make([]int32, n)}
			for i := 0; i < n; i++ {
				cols.TS[i] = tuple.Time(next() % 1_000_000)
				cols.Vals[i] = float64(next()) / 7
				cols.W[i] = int32(1 + next()%3)
			}
			bl.Keys = append(bl.Keys, tuple.KeySlice{ID: next() % 1000, Cols: cols})
		}
		m.Blocks = append(m.Blocks, bl)
	}
	return m
}
