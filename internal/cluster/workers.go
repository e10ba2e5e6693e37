package cluster

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// WorkerPool executes stage tasks on real OS goroutines — the concurrent
// counterpart of the discrete-event simulator above. One pool is shared by
// every stage of the batch pipeline: Map tasks, per-bucket Reduce tasks,
// per-query jobs, window merges, and the parallel statistics and weight
// passes all dispatch through it, so total concurrency stays bounded by
// the pool size instead of multiplying across stages.
//
// Results must be merged deterministically by the caller: tasks write to
// index-addressed slots and the driver combines them in index order after
// the barrier, so the number of workers changes wall-clock time only,
// never the computed values.
//
// A nil *WorkerPool is valid and runs everything inline on the calling
// goroutine — the classic single-goroutine driver. This is what makes the
// sequential and parallel runtimes share one code path.
type WorkerPool struct {
	workers int
}

// NewWorkerPool returns a pool of the given size. Sizes <= 0 select
// GOMAXPROCS, matching "as many workers as the hardware allows".
func NewWorkerPool(workers int) *WorkerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &WorkerPool{workers: workers}
}

// Workers returns the pool size; a nil pool reports 1.
func (p *WorkerPool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// parallel reports whether the pool actually runs tasks concurrently.
func (p *WorkerPool) parallel() bool { return p != nil && p.workers > 1 }

// TaskPanic is the panic value a WorkerPool re-raises on the calling
// goroutine when a task panics. Before it existed, a panicking task killed
// its worker goroutine outright — tearing the process down from a library
// call and, had the runtime not done so, leaving the barrier waiting on a
// result slot that would never fill. Every worker now recovers, the
// barrier always completes, and the lowest-index panic (deterministic at
// any worker count) is re-raised for the driver to convert into a batch
// error. TaskPanic implements error so that conversion is one errors.As
// away.
type TaskPanic struct {
	// Index is the panicking task's index.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (tp *TaskPanic) Error() string {
	return fmt.Sprintf("task %d panicked: %v", tp.Index, tp.Value)
}

// panicSlot keeps the lowest-index task panic observed during a barrier.
type panicSlot struct {
	mu sync.Mutex
	tp *TaskPanic
}

// record keeps the panic with the smallest task index, so the value that
// reaches the caller does not depend on goroutine scheduling.
func (s *panicSlot) record(i int, v any) {
	// A nested Do already wrapped the panic: keep the innermost report,
	// which names the task that actually failed.
	tp, ok := v.(*TaskPanic)
	if !ok {
		tp = &TaskPanic{Index: i, Value: v, Stack: debug.Stack()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tp == nil || i < s.tp.Index {
		s.tp = tp
	}
}

// run executes one task, capturing a panic into the slot.
func run(task func(i int), i int, slot *panicSlot) {
	defer func() {
		if v := recover(); v != nil {
			slot.record(i, v)
		}
	}()
	task(i)
}

// Do executes task(0..n-1), returning after all tasks complete (a stage
// barrier). Tasks run concurrently on up to Workers() goroutines; with a
// nil pool, one worker, or n <= 1 they run inline in index order. Do may
// be called from inside a running task (nested stages spawn their own
// goroutines), so a per-query job can fan out its Map tasks without
// deadlocking the pool. If a task panics, the remaining tasks still run,
// the barrier completes, and Do re-panics with a *TaskPanic on the calling
// goroutine.
func (p *WorkerPool) Do(n int, task func(i int)) {
	_ = p.DoContext(context.Background(), n, task)
}

// DoContext is Do with cooperative cancellation: once ctx is done, workers
// stop pulling new tasks, the tasks already in flight finish (they are
// never abandoned mid-write, so no goroutine outlives the call), and the
// context's error is returned with some tasks unexecuted — the caller must
// discard the partial results. A nil-pool or inline run checks ctx between
// tasks.
func (p *WorkerPool) DoContext(ctx context.Context, n int, task func(i int)) error {
	if n <= 0 {
		return nil
	}
	var slot panicSlot
	if !p.parallel() || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			run(task, i, &slot)
			if slot.tp != nil {
				panic(slot.tp)
			}
		}
		return nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(task, i, &slot)
			}
		}()
	}
	wg.Wait()
	if slot.tp != nil {
		panic(slot.tp)
	}
	return ctx.Err()
}

// DoRanges splits [0, n) into contiguous chunks of at least minChunk
// elements — one chunk per worker at most — and executes fn(lo, hi) for
// each chunk. It amortizes dispatch overhead for fine-grained per-element
// work (per-key weight sums) where a goroutine per
// element would cost more than the work itself.
func (p *WorkerPool) DoRanges(n, minChunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	if !p.parallel() || n <= minChunk {
		fn(0, n)
		return
	}
	chunks := p.workers
	if max := (n + minChunk - 1) / minChunk; chunks > max {
		chunks = max
	}
	size := (n + chunks - 1) / chunks
	bounds := make([][2]int, 0, chunks)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		bounds = append(bounds, [2]int{lo, hi})
	}
	p.Do(len(bounds), func(i int) { fn(bounds[i][0], bounds[i][1]) })
}
