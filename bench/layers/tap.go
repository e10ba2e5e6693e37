package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"prompt"
	"prompt/bench/harness"
	"prompt/internal/core"
	"prompt/internal/dist"
	"prompt/internal/engine"
	"prompt/internal/transport"
	"prompt/internal/wire"
)

// tap wraps a transport and records one transport.exchange span per
// frame: shard, frame type, and — while capturing — the frame bytes
// each way. It sits where Topology.connect puts transport.NewNet, so
// the coordinator and the sockets are exactly the production ones.
type tap struct {
	inner transport.Transport
	tr    *harness.Trace

	mu      sync.Mutex
	on      bool      // record spans
	capture bool      // also keep the marshalled frames
	frames  []capture // frames seen while capturing
}

// capture is one request/reply pair as it crossed the wire.
type capture struct {
	batch      int
	req, reply []byte
}

func (t *tap) Shards() int  { return t.inner.Shards() }
func (t *tap) Close() error { return t.inner.Close() }

func (t *tap) Dial(shard int) (transport.Conn, error) {
	c, err := t.inner.Dial(shard)
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c, t: t, shard: shard}
	if bg, ok := c.(transport.Beginner); ok {
		// Keep the multiplexed path: the coordinator type-asserts
		// Beginner to overlap in-flight frames.
		return &tapMuxConn{tapConn: tc, bg: bg}, nil
	}
	return tc, nil
}

type tapConn struct {
	transport.Conn
	t     *tap
	shard int
}

func (c *tapConn) Exchange(req wire.Msg) (wire.Msg, error) {
	start := time.Now()
	reply, err := c.Conn.Exchange(req)
	c.t.record(c.shard, req, reply, start, time.Now())
	return reply, err
}

type tapMuxConn struct {
	*tapConn
	bg transport.Beginner
}

func (c *tapMuxConn) Begin(req wire.Msg) (transport.Pending, error) {
	start := time.Now()
	p, err := c.bg.Begin(req)
	if err != nil {
		return nil, err
	}
	return &tapPending{Pending: p, c: c.tapConn, req: req, start: start}, nil
}

type tapPending struct {
	transport.Pending
	c     *tapConn
	req   wire.Msg
	start time.Time
}

func (p *tapPending) Await() (wire.Msg, error) {
	reply, err := p.Pending.Await()
	p.c.t.record(p.c.shard, p.req, reply, p.start, time.Now())
	return reply, err
}

// batchOf reads the batch index a task frame carries (-1 for frames
// that belong to no batch, such as the handshake).
func batchOf(m wire.Msg) int {
	switch f := m.(type) {
	case *wire.MapTask:
		return f.Batch
	case *wire.MapTaskCols:
		return f.Batch
	case *wire.ReduceTask:
		return f.Batch
	case *wire.Migrate:
		return f.Batch
	}
	return -1
}

func (t *tap) record(shard int, req, reply wire.Msg, start, end time.Time) {
	t.mu.Lock()
	on, capturing := t.on, t.capture
	t.mu.Unlock()
	if !on && !capturing {
		return
	}
	batch := batchOf(req)
	if on {
		t.tr.Add(harness.Span{
			Name: "transport.exchange", Start: start, End: end, Parent: -1, Batch: batch,
			Lane: harness.LaneShard0 + shard,
			Args: map[string]any{"shard": shard, "frame": fmt.Sprint(req.WireType())},
		})
	}
	if capturing && reply != nil {
		// Marshalling here costs time inside the exchange's caller, so
		// frames are captured only during a few untimed batches.
		rq, err1 := wire.Marshal(req)
		rp, err2 := wire.Marshal(reply)
		if err1 == nil && err2 == nil {
			t.mu.Lock()
			t.frames = append(t.frames, capture{batch: batch, req: rq, reply: rp})
			t.mu.Unlock()
		}
	}
}

func (t *tap) set(on, capture bool) {
	t.mu.Lock()
	t.on, t.capture = on, capture
	t.mu.Unlock()
}

// tappedStream is an engine wired the way Topology.connect wires one —
// engine.New, dist.NewCoordinator over the transport, SetExecutor —
// but over the tap, presented as the harness's Stream.
type tappedStream struct {
	eng   *engine.Engine
	coord *dist.Coordinator
	tap   *tap
}

// buildTapped is the harness.BuildFunc of the traced sharded workload.
func buildTapped(tr *harness.Trace, out **tappedStream) harness.BuildFunc {
	return func(w harness.Workload, topo *prompt.Topology) (harness.Stream, error) {
		if topo == nil || len(topo.Shards) == 0 {
			return nil, fmt.Errorf("the tapped build needs socket shards")
		}
		ec := core.PromptScheme().Apply(engine.Config{
			BatchInterval: prompt.At(harness.Interval),
			MapTasks:      harness.MapTasks,
			ReduceTasks:   harness.ReduceTasks,
			Workers:       w.Workers,
			PipelineDepth: 2,
		})
		queries := []engine.Query{w.Query()}
		eng, err := engine.NewMulti(ec, queries)
		if err != nil {
			return nil, err
		}
		tp := &tap{inner: transport.NewNet(topo.Shards), tr: tr}
		coord, err := dist.NewCoordinator(tp, eng.Config().BatchInterval, queries)
		if err != nil {
			tp.Close()
			return nil, err
		}
		eng.SetExecutor(coord)
		ts := &tappedStream{eng: eng, coord: coord, tap: tp}
		*out = ts
		return ts, nil
	}
}

func (s *tappedStream) Now() prompt.Time { return s.eng.Now() }

func (s *tappedStream) ProcessBatch(tuples []prompt.Tuple) (prompt.BatchReport, error) {
	start := s.eng.Now()
	rep, err := s.eng.StepContext(context.Background(), tuples, start, start+s.eng.Config().BatchInterval)
	return publicReport(rep), err
}

func (s *tappedStream) Run(src prompt.BatchSource, n int) ([]prompt.BatchReport, error) {
	reps, err := s.eng.RunBatchesContext(context.Background(), sourceStream{src}, n)
	out := make([]prompt.BatchReport, len(reps))
	for i, r := range reps {
		out[i] = publicReport(r)
	}
	return out, err
}

func (s *tappedStream) Window() map[string]float64 { return s.eng.WindowSnapshot() }
func (s *tappedStream) ShardsDown() int            { return s.coord.Down() }
func (s *tappedStream) Close() error               { return s.coord.Close() }

// publicReport copies the report fields the harness reads.
func publicReport(r engine.BatchReport) prompt.BatchReport {
	return prompt.BatchReport{
		Index: r.Index, Tuples: r.Tuples, Keys: r.Keys, TuplesDropped: r.TuplesDropped,
		Quality: r.Quality, BucketBSI: r.BucketBSI, ApproxBytes: r.ApproxBytes,
	}
}

// sourceStream adapts a BatchSource to the engine's pull interface, as
// the public Run does.
type sourceStream struct{ src prompt.BatchSource }

func (s sourceStream) Slice(start, end prompt.Time) ([]prompt.Tuple, error) {
	return s.src(start, end)
}
func (s sourceStream) Reset() {}
