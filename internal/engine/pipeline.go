package engine

import (
	"context"
	"fmt"
	"time"

	"prompt/internal/cluster"
	"prompt/internal/metrics"
	"prompt/internal/partition"
	"prompt/internal/stats"
	"prompt/internal/tuple"
)

// timeNow is the pipeline's wall clock; tests freeze it to make the
// measured partitioning cost (and everything downstream) deterministic.
var timeNow = time.Now

// StubClock replaces the pipeline's wall clock and returns a function
// restoring the previous one. With a constant clock the measured
// partitioning cost is zero and every simulated report field becomes a
// pure function of the inputs — the cross-package correctness harness
// (internal/check) freezes the clock this way to compare runs bit for
// bit. Not safe for concurrent engines with different clock needs.
func StubClock(fn func() time.Time) (restore func()) {
	prev := timeNow
	timeNow = fn
	return func() { timeNow = prev }
}

// stageContext resolves the batch's cancellation context, which is nil
// when the caller used the plain (non-context) entry points.
func (ctx *BatchContext) stageContext() context.Context {
	if ctx.Ctx != nil {
		return ctx.Ctx
	}
	return context.Background()
}

// cancelled returns the batch's context error, if any.
func (ctx *BatchContext) cancelled() error {
	if ctx.Ctx != nil {
		return ctx.Ctx.Err()
	}
	return nil
}

// newBatch opens the context of batch idx over the checked column batch
// cb, stamping it with its interval.
func newBatch(ctx context.Context, idx int, cb *tuple.ColumnBatch, start, end tuple.Time) *BatchContext {
	cb.Start, cb.End = start, end
	return &BatchContext{
		Index: idx,
		Ctx:   ctx,
		Cols:  cb,
		// The batch's own interval: normally cfg.BatchInterval, but the
		// adaptive batch-sizing extension may vary it per batch, and all
		// stability accounting follows the actual interval.
		Interval: end - start,
	}
}

// front is a batch's batching half: Algorithm 1's accumulate, then
// Algorithm 2's partition. It touches only the frontend scratch (acc,
// post, blocks) and the estimate feedback, so the pipelined driver may
// run batch k+1's front while batch k's back is in flight.
func (e *Engine) front(bc *BatchContext) (err error) {
	defer catchTaskPanic(bc.Index, &err)
	obs := e.cfg.Observer
	if obs != nil {
		e.observeBatchStart(obs, bc)
	}
	if err := runStage(obs, bc, StageAccumulate, e.accumulateStage); err != nil {
		return err
	}
	return runStage(obs, bc, StagePartition, e.partitionStage)
}

// back is a batch's processing half: input replication, then process
// (Map, Algorithm 3's shuffle, Reduce), recover and commit, and finally
// the engine's committed position advances. Batches enter back strictly
// in order, so the replica store sees them in commit order and every
// simulated-time feedback edge (procFree, coresLost, taskSeq, pending
// drops and rescales) lives here.
func (e *Engine) back(bc *BatchContext) (err error) {
	defer catchTaskPanic(bc.Index, &err)
	if e.store != nil {
		// Replicate the raw input before processing: the recover stage
		// recomputes lost outputs from this copy (Put copies, so the reused
		// column scratch is safe to hand over).
		e.store.Put(bc.Index, bc.Cols)
	}
	obs := e.cfg.Observer
	if err := runStage(obs, bc, StageProcess, e.processStage); err != nil {
		return err
	}
	if err := runStage(obs, bc, StageRecover, e.recoverStage); err != nil {
		return err
	}
	if err := runStage(obs, bc, StageCommit, e.commitStage); err != nil {
		return err
	}
	if obs != nil {
		e.observeBatchEnd(obs, bc)
	}
	e.recordReport(bc.Report)
	e.batchIdx++
	e.now = bc.Cols.End
	return nil
}

// catchTaskPanic, deferred by each batch half, converts a pipeline task's
// re-raised *cluster.TaskPanic into the batch's error instead of
// unwinding the caller; any other panic propagates.
func catchTaskPanic(idx int, err *error) {
	if v := recover(); v != nil {
		tp, ok := v.(*cluster.TaskPanic)
		if !ok {
			panic(v)
		}
		*err = fmt.Errorf("engine: batch %d: %w", idx, tp)
	}
}

// runStage runs one stage of a batch once the batch's context is still
// live. Only with an observer does it time the stage and emit its
// OnStageEnd event, so the unobserved hot path adds nothing to the
// stage's own work.
func runStage(obs Observer, bc *BatchContext, name StageName, stage func(*BatchContext) error) error {
	if err := bc.cancelled(); err != nil {
		return err
	}
	if obs == nil {
		return stage(bc)
	}
	stageStart := timeNow()
	if err := stage(bc); err != nil {
		return err
	}
	obs.OnStageEnd(metrics.StageEnd{
		Batch:     bc.Index,
		Stage:     string(name),
		Wall:      timeNow().Sub(stageStart),
		Simulated: bc.simulated(name),
	})
	return nil
}

// observeBatchStart emits the batch-start event and stamps the batch's
// wall-clock start on the context, so the batch-end event reports the
// same end-to-end wall time whether front and back run inline or on the
// pipelined driver's two lanes.
func (e *Engine) observeBatchStart(obs Observer, ctx *BatchContext) {
	ctx.wallStart = timeNow()
	obs.OnBatchStart(metrics.BatchStart{
		Batch:  ctx.Index,
		Start:  ctx.Cols.Start,
		End:    ctx.Cols.End,
		Tuples: ctx.Cols.Len(),
	})
}

// observeBatchEnd emits the batch-end event from the committed report.
func (e *Engine) observeBatchEnd(obs Observer, ctx *BatchContext) {
	obs.OnBatchEnd(metrics.BatchEnd{
		Batch:      ctx.Index,
		Wall:       timeNow().Sub(ctx.wallStart),
		Tuples:     ctx.Report.Tuples,
		Keys:       ctx.Report.Keys,
		Processing: ctx.Report.ProcessingTime,
		Latency:    ctx.Report.Latency,
		Stable:     ctx.Report.Stable,
	})
}

// --- Accumulate (Algorithm 1) -------------------------------------------

// accumulateStage feeds the batch's tuples through the statistics
// accumulator while the batch buffers. In post-sort mode it is a no-op:
// the baseline buffers blindly and pays its sorting cost at the release
// point, inside the partition stage's measured window.
func (e *Engine) accumulateStage(ctx *BatchContext) error {
	switch e.cfg.Accum {
	case FrequencyAware:
		return e.accumulate(ctx.Cols)
	case PostSortMode:
		return nil
	default:
		return fmt.Errorf("engine: unknown accumulation mode %v", e.cfg.Accum)
	}
}

// --- Partition (Algorithm 2) --------------------------------------------

// partitionStage finalizes the batch statistics (or post-sorts the raw
// batch) and splits the batch into data blocks. Its measured wall time is
// the partitioning cost charged against the early-release slack; the
// excess becomes Overflow and delays processing.
func (e *Engine) partitionStage(ctx *BatchContext) error {
	wallStart := timeNow()
	switch e.cfg.Accum {
	case FrequencyAware:
		// Only finalization happens at the release point: the per-tuple
		// accumulation overlapped the batching interval.
		ctx.Sorted, ctx.Stats = e.acc.Finalize()
	case PostSortMode:
		ctx.Sorted = e.postSort(ctx.Cols)
		ctx.Stats = stats.BatchStats{
			Tuples: ctx.Cols.Len(), Keys: len(ctx.Sorted),
			Start: ctx.Cols.Start, End: ctx.Cols.End,
		}
	}
	e.noteEstimates(ctx.Stats)

	blocks, err := e.cfg.Partitioner.Partition(partition.Input{
		Cols: ctx.Cols, Dict: e.dict, Sorted: ctx.Sorted, Pool: e.pool, Blocks: e.blocks,
	}, e.cfg.MapTasks)
	if err != nil {
		return fmt.Errorf("engine: partitioning batch %d: %w", ctx.Index, err)
	}
	ctx.Blocks, e.blocks = blocks, blocks
	ctx.PartitionTime = tuple.FromDuration(timeNow().Sub(wallStart))

	if e.cfg.ValidateBatches {
		if err := tuple.ValidateBlocks(blocks, ctx.Cols.KeyCounts(e.dict.Resolve)); err != nil {
			return fmt.Errorf("engine: batch %d: %w", ctx.Index, err)
		}
	}

	slack := tuple.Time(float64(ctx.Interval) * e.cfg.EarlyReleaseFraction)
	ctx.Overflow = ctx.PartitionTime - slack
	if ctx.Overflow < 0 {
		ctx.Overflow = 0
	}
	return nil
}

// --- Shuffle + Process (Algorithm 3) ------------------------------------

// processStage runs one Map-Reduce job per query over the shared blocks:
// Map tasks with local bucket assignment, the shuffle, and per-bucket
// Reduce folds. Jobs run concurrently on the worker pool behind the
// driver barrier; task sequence numbers are pre-assigned per query so
// straggler injection afflicts the same tasks the sequential driver
// would, and per-query results land in index-addressed slots for
// deterministic merging.
func (e *Engine) processStage(ctx *BatchContext) error {
	for _, bl := range ctx.Blocks {
		// Warm the cardinality caches: concurrent jobs then share the
		// blocks strictly read-only.
		bl.Cardinality()
	}

	// Pin the simulated substrate before the jobs fan out: the effective
	// core count, and the executor kill (if scripted for this batch). The
	// kill strikes during the primary query's Map stage; everything after
	// it — the primary's Reduce stage and the secondary jobs — runs on the
	// survivors. Fixing this on the driver keeps concurrent jobs
	// deterministic.
	coresNow := e.effectiveCores()
	spec := jobSpec{batch: ctx.Index, mapCores: coresNow, reduceCores: coresNow}
	if e.injector != nil {
		if kill, ok := e.injector.Kill(ctx.Index); ok {
			spec.kill = kill
			spec.hasKill = true
			after := coresNow - kill.Cores
			if after < 1 {
				after = 1
			}
			spec.reduceCores = after
		}
	}
	ctx.Cores = coresNow

	seqBase := e.taskSeq
	perQuery := len(ctx.Blocks) + e.cfg.ReduceTasks
	runs := make([]queryRun, len(e.queries))
	qerrs := make([]error, len(e.queries))
	if err := e.pool.DoContext(ctx.stageContext(), len(e.queries), func(qi int) {
		sp := spec
		if qi != 0 {
			// Secondary jobs run after the primary's Map stage, so they
			// see the post-kill core set and no mid-stage failure.
			sp.hasKill = false
			sp.mapCores = sp.reduceCores
		}
		runs[qi], qerrs[qi] = e.runQuery(qi, ctx.Blocks, seqBase+qi*perQuery, sp)
	}); err != nil {
		return err
	}
	e.taskSeq = seqBase + len(e.queries)*perQuery
	for qi, qerr := range qerrs {
		if qerr != nil {
			return fmt.Errorf("engine: batch %d query %d: %w", ctx.Index, qi, qerr)
		}
	}
	ctx.runs = runs

	// Fault bookkeeping, post-barrier on the driver: observer events fire
	// in deterministic (query, task) order, and the kill's cores leave the
	// schedulable set for subsequent batches until SetCores re-provisions.
	for qi := range runs {
		ctx.retries = append(ctx.retries, runs[qi].retries...)
	}
	if obs := e.cfg.Observer; obs != nil {
		for _, r := range ctx.retries {
			obs.OnTaskRetry(r)
		}
	}
	if spec.hasKill {
		e.loseCores(spec.kill.Cores)
	}

	processing := ctx.Overflow
	for qi := range runs {
		processing += runs[qi].mapMakespan + runs[qi].reduceMakespan
	}
	ctx.Processing = processing
	return nil
}

// --- Recover (fault answers) ---------------------------------------------

// recoverStage answers a scripted output loss: the batch's results are
// recomputed from the replicated input, deterministically, so the
// recovered outputs are bit-identical to the lost ones. Each scripted
// failed attempt charges a full recompute pass plus the retry backoff;
// exceeding the retry budget fails the batch. Without a fault plan (or
// without a loss for this batch) the stage is a no-op.
func (e *Engine) recoverStage(ctx *BatchContext) error {
	if e.injector == nil {
		return nil
	}
	lose, ok := e.injector.LostOutput(ctx.Index)
	if !ok {
		return nil
	}
	policy := e.injector.Policy()
	attempts := lose.Fails + 1
	if attempts > policy.MaxAttempts {
		return fmt.Errorf("engine: batch %d: output lost and unrecoverable (%d attempts needed, retry budget %d)",
			ctx.Index, attempts, policy.MaxAttempts)
	}
	wallStart := timeNow()
	results, sim, err := e.store.Replay(ctx.Index, e.cfg, e.queries)
	if err != nil {
		return fmt.Errorf("engine: batch %d: %w", ctx.Index, err)
	}
	// The lost in-memory outputs are replaced by the recomputed ones; the
	// commit stage then folds the recovered results into the windows, so
	// any divergence would surface in the final answers.
	for qi := range ctx.runs {
		ctx.runs[qi].result = results[qi]
	}
	// Every attempt (the scripted failures and the final success) pays a
	// full recompute pass; retries additionally wait out the backoff.
	var recovery tuple.Time
	for a := 1; a <= attempts; a++ {
		recovery += sim + policy.Delay(a)
	}
	ctx.RecoveryAttempts = attempts
	ctx.RecoveryTime = recovery
	ctx.Processing += recovery
	if obs := e.cfg.Observer; obs != nil {
		obs.OnRecovery(metrics.Recovery{
			Batch:     ctx.Index,
			Attempts:  attempts,
			Simulated: recovery,
			Wall:      timeNow().Sub(wallStart),
		})
	}
	return nil
}

// --- Window commit -------------------------------------------------------

// commitStage merges each query's batch output into its window state,
// settles queueing and stability against the processing-pipeline
// occupancy, and assembles the BatchReport.
func (e *Engine) commitStage(ctx *BatchContext) error {
	// Window maintenance: each query's window merge is independent, so
	// the merges run on the pool too.
	aggErrs := make([]error, len(e.queries))
	e.pool.Do(len(e.queries), func(qi int) {
		res := &ctx.runs[qi].result
		e.lastResults[qi] = res
		if e.aggs[qi] != nil {
			aggErrs[qi] = e.aggs[qi].AddColumns(ctx.Cols.End, res.IDs, res.Vals)
		}
	})
	for _, aggErr := range aggErrs {
		if aggErr != nil {
			return aggErr
		}
	}
	// Approximate tier: fold the exact results into the per-query
	// summaries. Recovery already replaced any lost results, so the fold
	// only ever sees the bit-identical committed answers; running it on
	// the driver keeps the estimators free of synchronization.
	var approxBound float64
	var approxBytes int
	for qi, est := range e.approxes {
		res := &ctx.runs[qi].result
		if err := est.AddColumns(ctx.Cols.End, e.dict, res.IDs, res.Vals); err != nil {
			return fmt.Errorf("engine: batch %d: %w", ctx.Index, err)
		}
		if qi == 0 {
			approxBound = est.ErrorBound()
			approxBytes = est.Bytes()
		}
	}
	primary := ctx.runs[0]

	// Timing, queueing, stability: the batch becomes processable at the
	// heartbeat and may wait for the previous batch's processing.
	readyAt := ctx.Cols.End
	startProc := readyAt
	if e.procFree > startProc {
		startProc = e.procFree
	}
	finish := startProc + ctx.Processing
	e.procFree = finish

	ctx.Report = BatchReport{
		Index:             ctx.Index,
		Start:             ctx.Cols.Start,
		End:               ctx.Cols.End,
		Tuples:            ctx.Stats.Tuples,
		Keys:              ctx.Stats.Keys,
		MapTasks:          e.cfg.MapTasks,
		ReduceTasks:       e.cfg.ReduceTasks,
		Cores:             ctx.Cores,
		CoresLost:         e.coresLost,
		TaskRetries:       len(ctx.retries),
		RecoveryAttempts:  ctx.RecoveryAttempts,
		RecoveryTime:      ctx.RecoveryTime,
		TuplesDropped:     e.pendingDrops,
		Quality:           metrics.EvaluateWithKeys(ctx.Blocks, e.cfg.MPIWeights, ctx.Stats.Keys),
		BucketSizes:       primary.sizes,
		BucketBSI:         metrics.BSISizes(primary.sizes),
		PartitionTime:     ctx.PartitionTime,
		PartitionOverflow: ctx.Overflow,
		MapStageTime:      primary.mapMakespan,
		ReduceStageTime:   primary.reduceMakespan,
		ReduceTaskTimes:   primary.reduceDurations,
		ProcessingTime:    ctx.Processing,
		QueueWait:         startProc - readyAt,
		Latency:           finish - ctx.Cols.Start,
		W:                 float64(ctx.Processing) / float64(ctx.Interval),
		Stable:            finish <= ctx.Cols.End+ctx.Interval,
		ApproxErrorBound:  approxBound,
		ApproxBytes:       approxBytes,
	}
	if e.pendingDrops > 0 {
		if obs := e.cfg.Observer; obs != nil {
			obs.OnDrop(metrics.Drop{Batch: ctx.Index, Count: e.pendingDrops})
		}
		e.pendingDrops = 0
	}
	if e.approxes != nil {
		if obs := e.cfg.Observer; obs != nil {
			obs.OnApprox(metrics.Approx{
				Batch:      ctx.Index,
				Kind:       string(e.cfg.Approx.Kind),
				ErrorBound: approxBound,
				Bytes:      approxBytes,
			})
		}
	}
	// Elastic handoff last: the report above is already sealed, so a
	// rescale can only move state between owners, never change answers.
	return e.applyRescale(ctx.Index)
}
