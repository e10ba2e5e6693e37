package prompt

import (
	"context"
	"fmt"
	"runtime"

	"prompt/internal/ring"
	"prompt/internal/tuple"
)

// Receiver is the concurrent columnar intake: a bounded lock-free ring
// per producer goroutine, drained by the stream's driver straight into the
// struct-of-arrays batch representation the engine consumes.
// Producers never contend on a shared lock — each owns its ring — and a
// full ring blocks its producer (bounded-buffer backpressure) instead of
// dropping tuples.
//
// The usage pattern is batch-synchronous per interval: producer
// goroutines Push the interval's tuples and Close their producers while
// the driver calls Stream.ProcessReceived, whose drain runs concurrently
// with the producers and completes once every producer has closed. The
// drain must be in flight whenever an interval pushes more tuples than a
// ring holds — a full ring blocks its producer until the consumer makes
// room. Within one producer, tuples keep push order; across producers,
// the batch is the concatenation of the per-producer segments in
// producer order. Window answers do not depend on tuple order within an
// interval (the check harness pins permutation invariance), so any
// assignment of sources to producers yields identical query results;
// order-sensitive per-batch diagnostics (bucket sizes, quality metrics)
// may differ, exactly as they would across permutations of a
// ProcessBatch slice.
//
// A Receiver is reusable: after ProcessReceived returns, Reset re-arms
// every ring for the next interval.
type Receiver struct {
	m *ring.MPSC
}

// NewReceiver returns a receiver with one ring per producer. producers
// <= 0 selects GOMAXPROCS (one ring per core); capacity <= 0 selects
// 1024 tuples per ring. Capacities round up to a power of two.
func NewReceiver(producers, capacity int) *Receiver {
	if producers <= 0 {
		producers = runtime.GOMAXPROCS(0)
	}
	if capacity <= 0 {
		capacity = 1024
	}
	return &Receiver{m: ring.NewMPSC(producers, capacity)}
}

// Producers returns the number of producer rings.
func (r *Receiver) Producers() int { return r.m.Producers() }

// Producer returns producer i's intake handle. Exactly one goroutine may
// use each handle.
func (r *Receiver) Producer(i int) *Producer {
	return &Producer{r: r.m.Ring(i)}
}

// Reset re-arms every ring for the next batch interval. Call it only
// after ProcessReceived has drained the previous interval and before the
// next interval's producers start.
func (r *Receiver) Reset() { r.m.Reset() }

// Producer is one goroutine's intake handle into a Receiver.
type Producer struct {
	r *ring.SPSC
}

// Push appends one tuple, blocking while the ring is full. It reports
// false if the producer was already closed.
func (p *Producer) Push(t Tuple) bool { return p.r.Push(t) }

// Close marks this producer finished for the current interval. The
// driver's drain completes only after every producer has closed.
func (p *Producer) Close() { p.r.Close() }

// ProcessReceived drains the receiver's rings (blocking until every
// producer has closed) directly into a pooled column batch and runs the
// full micro-batch lifecycle over it through the engine's column edge —
// the drain is the transpose: rows go from the rings straight into
// columns. Tuples must be stamped within [Now, Now+BatchInterval). A
// Weight that does not fit the int32 weight column fails the batch with
// ErrWeightOverflow once the drain completes, committing nothing (keys
// drained before it stay interned). The receiver must be Reset before the
// next interval's producers start.
func (s *Stream) ProcessReceived(r *Receiver) (BatchReport, error) {
	return s.ProcessReceivedContext(context.Background(), r)
}

// ProcessReceivedContext is ProcessReceived with cooperative
// cancellation once the drain completes; the drain itself blocks until
// every producer closes.
func (s *Stream) ProcessReceivedContext(ctx context.Context, r *Receiver) (BatchReport, error) {
	start := s.eng.Now()
	end := start + s.eng.Config().BatchInterval
	cb := tuple.GetColumnBatch()
	defer tuple.PutColumnBatch(cb)
	dict := s.eng.Dict()
	var bad error
	r.m.Drain(func(t tuple.Tuple) {
		// Keep draining after a bad weight — the producers block until the
		// rings empty — but append nothing more.
		if bad != nil {
			return
		}
		if bad = tuple.CheckWeight(t.Weight); bad == nil {
			cb.Append(dict.Intern(t.Key), t.TS, t.Val, int32(t.Weight))
		}
	})
	if bad != nil {
		return BatchReport{}, fmt.Errorf("prompt: received tuple %d: %w", cb.Len(), bad)
	}
	rep, err := s.eng.StepColumnsContext(ctx, cb, start, end)
	if err != nil {
		return BatchReport{}, err
	}
	br := newBatchReport(s.scheme.Name, rep)
	if err := s.observeElastic(rep); err != nil {
		return br, err
	}
	return br, nil
}
