package engine

import (
	"context"
	"time"

	"prompt/internal/metrics"
	"prompt/internal/stats"
	"prompt/internal/tuple"
	"prompt/internal/workload"
)

// MaxPipelineDepth bounds Config.PipelineDepth. Depth beyond a handful of
// batches buys nothing — the frontend and backend lanes are each
// serialized, so one batch of lookahead already hides the shorter lane
// behind the longer — while every extra slot doubles another accumulator.
const MaxPipelineDepth = 8

// pipeSlot is the double-buffered frontend state of one in-flight batch.
// Batch statistics structures hand out views into their own storage
// (Finalize reuses its output slice, the post-sorter its per-key column
// groups, the column scratch its arrays), all valid until the structure's
// next reset. Rotating a slot per in-flight batch keeps batch k's blocks
// intact while batch k+1 accumulates: slot k mod depth is not reused
// before batch k has committed, which the depth tokens guarantee.
type pipeSlot struct {
	acc    *stats.Accumulator
	post   *stats.PostSorter
	col    *tuple.ColumnBatch
	blocks []*tuple.Block
}

// stage installs the slot's state as the engine's working scratch; only
// the frontend goroutine touches these fields during a pipelined run.
func (sl *pipeSlot) stage(e *Engine) {
	e.acc, e.post, e.colScratch, e.blocks = sl.acc, sl.post, sl.col, sl.blocks
}

// unstage captures the (possibly lazily created or regrown) scratch back
// into the slot after the batch's frontend work.
func (sl *pipeSlot) unstage(e *Engine) {
	sl.acc, sl.post, sl.col, sl.blocks = e.acc, e.post, e.colScratch, e.blocks
}

// pipeItem is one batch's frontend→backend handoff.
type pipeItem struct {
	bc *BatchContext
	// err terminates the run after all earlier batches commit; bc is nil.
	err error
	// admitStall and frontWall feed the pipeline gauges: how long the
	// batch waited for a depth token, and its accumulate+partition wall.
	admitStall time.Duration
	frontWall  time.Duration
}

// runPipelined is the depth-bounded inter-batch pipelining driver behind
// RunBatches when PipelineDepth > 1.
//
// It runs the same two halves as step, on two lanes: the frontend
// goroutine runs each batch's front (accumulate and partition, Algorithms
// 1 and 2) over that batch's own pipeSlot, in batch order; the backend —
// the calling goroutine — runs back (replicate, process, recover, commit),
// also in batch order.
// Commit order is therefore exactly the sequential driver's, and every
// feedback edge is consumed at the boundary it was produced for:
//
//   - the Algorithm 1 estimates (N_Est, K_Avg) flow from batch k's
//     partition stage to batch k+1's accumulate inside the frontend lane;
//   - batch stats, blocks, and the partition plan flow forward through
//     the handoff channel;
//   - simulated-time feedback (procFree queueing, coresLost, taskSeq,
//     pending drops, rescale intents) lives entirely in the backend lane.
//
// A counting semaphore of depth tokens bounds the in-flight window: batch
// k+depth may not enter the frontend before batch k has committed, which
// also makes the per-slot scratch rotation safe. Reports, windows, and
// checkpoints are bit-identical to depth 1; only wall-clock time changes.
func (e *Engine) runPipelined(ctx context.Context, src workload.Stream, n int) ([]BatchReport, error) {
	depth := e.PipelineDepth()
	obs := e.cfg.Observer

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	tokens := make(chan struct{}, depth)
	for i := 0; i < depth; i++ {
		tokens <- struct{}{}
	}
	items := make(chan *pipeItem, depth)

	slots := make([]pipeSlot, depth)
	// Seed slot 0 with the engine's current scratch so a pipelined run
	// keeps reusing what sequential Steps built up (and vice versa).
	slots[0] = pipeSlot{acc: e.acc, post: e.post, col: e.colScratch, blocks: e.blocks}

	go func() {
		defer close(items)
		next := e.now
		base := e.batchIdx
		for i := 0; i < n; i++ {
			waitStart := timeNow()
			select {
			case <-cctx.Done():
				items <- &pipeItem{err: cctx.Err()}
				return
			case <-tokens:
			}
			admitStall := timeNow().Sub(waitStart)
			// Check before pulling from the source: sources are
			// sequential, so consuming an interval the run then abandons
			// would desynchronize a later resume.
			if err := cctx.Err(); err != nil {
				items <- &pipeItem{err: err}
				return
			}
			start := next
			end := start + e.cfg.BatchInterval
			tuples, err := src.Slice(start, end)
			if err != nil {
				items <- &pipeItem{err: err}
				return
			}
			sl := &slots[i%depth]
			sl.stage(e)
			frontStart := timeNow()
			bc, err := e.frontendBatch(cctx, base+i, tuples, start, end)
			sl.unstage(e)
			if err != nil {
				items <- &pipeItem{err: err}
				return
			}
			items <- &pipeItem{
				bc:         bc,
				admitStall: admitStall,
				frontWall:  timeNow().Sub(frontStart),
			}
			next = end
		}
	}()

	out := make([]BatchReport, 0, n)
	var runErr error
	for item := range items {
		if runErr != nil {
			continue // drain after failure so the frontend goroutine exits
		}
		if item.err != nil {
			runErr = item.err
			cancel()
			continue
		}
		backStart := timeNow()
		if err := e.back(item.bc); err != nil {
			runErr = err
			cancel()
			continue
		}
		out = append(out, item.bc.Report)
		if po, ok := obs.(metrics.PipelineObserver); ok {
			po.OnPipeline(metrics.PipelineEvent{
				Batch:          item.bc.Index,
				Depth:          depth,
				InFlight:       depth - len(tokens),
				AdmissionStall: item.admitStall,
				FrontendWall:   item.frontWall,
				BackendWall:    timeNow().Sub(backStart),
			})
		}
		tokens <- struct{}{}
	}

	if runErr != nil {
		// Discard estimate feedback learned from batches that never
		// committed, so a later sequential resume sees exactly the state a
		// depth-1 run would have left.
		e.resetEstimates()
		return out, runErr
	}
	return out, nil
}

// frontendBatch is the frontend lane's share of one batch: the transpose
// into the slot's column batch, then front.
func (e *Engine) frontendBatch(cctx context.Context, idx int, tuples []tuple.Tuple, start, end tuple.Time) (*BatchContext, error) {
	cb, err := e.transpose(tuples, idx)
	if err != nil {
		return nil, err
	}
	bc := newBatch(cctx, idx, cb, start, end)
	if err := e.front(bc); err != nil {
		return nil, err
	}
	return bc, nil
}
