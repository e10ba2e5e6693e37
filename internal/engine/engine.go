package engine

import (
	"context"
	"fmt"
	"sync"

	"prompt/internal/approx"
	"prompt/internal/backpressure"
	"prompt/internal/cluster"
	"prompt/internal/fault"
	"prompt/internal/intern"
	"prompt/internal/metrics"
	"prompt/internal/reducer"
	"prompt/internal/stats"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// Engine runs one or more streaming queries on the micro-batch substrate.
// The driver (scheduler) serializes batch lifecycle decisions exactly as
// the Spark driver does, while execution inside a batch runs on a shared
// worker pool when Config.Workers is set: Map tasks, per-bucket Reduce
// folds, per-query jobs, and window merges execute on real goroutines
// with deterministic result merging, so simulated-time reports are
// identical at any worker count and concurrency changes wall-clock time
// only. With Workers == 0 everything runs inline on the driver goroutine
// (the classic sequential mode).
//
// With several queries, the batching phase — statistics (Algorithm 1) and
// partitioning (Algorithm 2) — runs once per batch and the queries share
// the resulting data blocks; each query then executes as its own
// Map-Reduce job, sequentially, as Spark runs one job per output
// operation. The batch report's stage details describe the primary query
// (index 0); ProcessingTime covers all jobs.
type Engine struct {
	cfg     Config
	queries []Query
	aggs    []*window.Aggregator
	// approxes holds one windowed approximate summary per query when
	// Config.Approx is enabled (nil otherwise). The commit stage folds
	// each query's exact batch result into its estimator, so summaries see
	// only bit-identical inputs and inherit the engine's determinism.
	approxes []*approx.Estimator

	batchIdx int
	now      tuple.Time // start of the next batch interval
	procFree tuple.Time // when the processing pipeline becomes free

	// lastResults holds each query's latest batch output as columns (nil
	// before the first batch); the map accessors resolve keys on demand.
	lastResults []*Result
	// reports is the bounded report history: recordReport keeps at least
	// the last reportTail reports and never more than twice that, and
	// Reports exposes exactly the tail.
	reports []BatchReport

	acc *stats.Accumulator
	// post is the pooled dictionary-backed post-sorter of PostSortMode;
	// like acc it is created lazily and its output is valid until its next
	// use, so the pipelined driver rotates it per in-flight slot.
	post *stats.PostSorter

	// estTuples/estKeys are the Algorithm 1 estimates (N_Est, K_Avg)
	// learned from the most recently partitioned batch; estValid reports
	// that at least one batch produced them. They are recorded at the end
	// of the partition stage — not read back from the last report — so the
	// pipelined driver can start batch k+1's accumulate before batch k has
	// committed. The values equal the last report's Tuples/Keys fields,
	// keeping sequential and pipelined estimate feedback bit-identical.
	estTuples int
	estKeys   int
	estValid  bool
	// dict is the stream-lifetime key dictionary of the zero-allocation
	// hot path: keys intern once at accumulator ingestion and their dense
	// IDs address the reused statistics structures batch after batch. It
	// is checkpointed so restored engines keep every ID stable.
	dict *intern.Dict

	// colScratch is the reused batch the row edge transposes into (see
	// transpose); it is valid only within one Step call.
	colScratch *tuple.ColumnBatch

	// pool executes batch-pipeline tasks on real goroutines; nil runs the
	// classic single-goroutine driver.
	pool *cluster.WorkerPool

	// exec is the installed data-plane executor (nil = the in-process
	// localExec over the worker pool). Executors relocate the Map and
	// Reduce folds — to in-process shards or remote processes — without
	// touching the simulation, so reports are identical under any of them.
	exec JobExecutor

	// pipeline is the staged batch lifecycle Step drives; see stage.go.
	pipeline []Stage

	// taskSeq numbers every simulated task across batches and stages, so
	// straggler injection afflicts a deterministic, evenly spread subset.
	taskSeq int

	// injector indexes the scripted fault plan; nil injects nothing.
	injector *fault.Injector
	// store replicates batch inputs when faults are enabled, so scripted
	// output losses can be recomputed (the paper's §8 consistency path).
	store *BatchStore
	// coresLost is how many simulated cores injected kills have removed.
	// It persists across batches until the resource manager re-provisions
	// (SetCores), mirroring a real cluster waiting on replacement
	// executors.
	coresLost int

	// reorder is the attached bounded-delay reorder buffer (nil without
	// one). Attaching it makes its state — pending tuples, horizons, drop
	// count — part of the engine's checkpoint image, so a restored engine
	// resumes sealing exactly where the checkpointed one stopped.
	reorder *Reorderer
	// throttle is the attached AIMD back-pressure controller (nil without
	// one); like the reorderer, attaching it checkpoints its Factor.
	throttle *backpressure.AIMD
	// pendingDrops accumulates reorder-buffer drops observed since the
	// last committed batch; the commit stage charges them to the next
	// report's TuplesDropped and resets the counter.
	pendingDrops int

	// checkpointSize is the length of the last checkpoint: the next one
	// starts its buffer at that capacity instead of growing into it.
	checkpointSize int

	// owners is the current virtual-slot owner count of the elastic
	// runtime (0 = ownership tracking off, the static default);
	// pendingOwners is a requested change applied at the next commit
	// (see Rescale), and migrations counts applied slot handoffs.
	owners        int
	pendingOwners int
	migrations    int
}

// New builds an engine for a single query. Zero-valued config fields take
// the evaluation defaults.
func New(cfg Config, q Query) (*Engine, error) {
	return NewMulti(cfg, []Query{q})
}

// NewMulti builds an engine running several queries over one stream,
// sharing the batching phase.
func NewMulti(cfg Config, queries []Query) (*Engine, error) {
	return newMulti(cfg, queries, intern.NewDict(0))
}

// newMulti is NewMulti over a given key dictionary — a fresh one, or the
// checkpointed one under Restore. The window aggregators are built over
// it, so the dictionary must be final before they are.
func newMulti(cfg Config, queries []Query, dict *intern.Dict) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("engine: need at least one query")
	}
	e := &Engine{
		cfg:         cfg,
		queries:     make([]Query, len(queries)),
		aggs:        make([]*window.Aggregator, len(queries)),
		lastResults: make([]*Result, len(queries)),
		pool:        poolFor(cfg.Workers),
		pipeline:    defaultPipeline(),
		dict:        dict,
	}
	for i, q := range queries {
		q = q.normalized()
		agg, err := q.newAggregator(cfg.BatchInterval, dict)
		if err != nil {
			return nil, fmt.Errorf("engine: query %d (%s): %w", i, q.Name, err)
		}
		e.queries[i] = q
		e.aggs[i] = agg
	}
	if cfg.Approx.Enabled() {
		e.approxes = make([]*approx.Estimator, len(e.queries))
		for i, q := range e.queries {
			win := q.Window.Length
			if win == 0 {
				win = cfg.BatchInterval
			}
			est, err := approx.NewEstimator(cfg.Approx, win)
			if err != nil {
				return nil, fmt.Errorf("engine: query %d (%s): %w", i, q.Name, err)
			}
			e.approxes[i] = est
		}
	}
	if !cfg.Faults.Empty() {
		in, err := fault.NewInjector(cfg.Faults, cfg.Retry)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		e.injector = in
		// Replicate inputs as long as any query window can still need
		// them; windowless queries need only the batch itself.
		retain := cfg.BatchInterval
		for _, q := range e.queries {
			if q.Window.Length > retain {
				retain = q.Window.Length
			}
		}
		e.store = NewBatchStore(retain, dict)
	}
	return e, nil
}

// Config returns the engine's current configuration.
func (e *Engine) Config() Config { return e.cfg }

// Dict returns the engine's stream-lifetime intern dictionary: every batch
// ID resolves in it. Callers building ColumnBatches for StepColumns must
// intern their keys here.
func (e *Engine) Dict() *intern.Dict { return e.dict }

// Now returns the start of the next batch interval.
func (e *Engine) Now() tuple.Time { return e.now }

// Queries returns the number of queries the engine runs.
func (e *Engine) Queries() int { return len(e.queries) }

// SetParallelism adjusts the Map/Reduce task counts for subsequent batches
// (the elastic controller's actuator).
func (e *Engine) SetParallelism(mapTasks, reduceTasks int) error {
	if mapTasks <= 0 || reduceTasks <= 0 {
		return fmt.Errorf("engine: parallelism must be positive, got p=%d r=%d", mapTasks, reduceTasks)
	}
	e.cfg.MapTasks = mapTasks
	e.cfg.ReduceTasks = reduceTasks
	return nil
}

// SetCores adjusts the simulated core count for subsequent batches. It is
// the resource manager's re-provisioning act, so it also restores any
// cores lost to injected executor kills.
func (e *Engine) SetCores(cores int) error {
	if cores <= 0 {
		return fmt.Errorf("engine: cores must be positive, got %d", cores)
	}
	e.cfg.Cores = cores
	e.coresLost = 0
	// Under ownership tracking, re-provisioning is a scale event: the
	// key ranges of the joining or leaving executors migrate at the next
	// batch boundary instead of being silently re-provisioned in place.
	if e.owners > 0 {
		e.pendingOwners = cores
	}
	return nil
}

// effectiveCores is the schedulable core count: the configured cores
// minus those lost to injected kills, never below one (the resource
// manager never releases the last executor).
func (e *Engine) effectiveCores() int {
	c := e.cfg.Cores - e.coresLost
	if c < 1 {
		c = 1
	}
	return c
}

// CoresLost returns how many simulated cores injected executor kills have
// removed and SetCores has not yet restored.
func (e *Engine) CoresLost() int { return e.coresLost }

// loseCores charges an executor kill against the schedulable core set,
// keeping at least one core.
func (e *Engine) loseCores(n int) {
	e.coresLost += n
	if e.coresLost > e.cfg.Cores-1 {
		e.coresLost = e.cfg.Cores - 1
	}
}

// SetWorkers changes the number of real worker goroutines for subsequent
// batches: 0 restores the single-goroutine driver, negative selects
// GOMAXPROCS. Reports are unaffected — workers change wall-clock time
// only.
func (e *Engine) SetWorkers(workers int) error {
	e.cfg.Workers = workers
	e.pool = poolFor(workers)
	return nil
}

// Workers returns the effective worker-goroutine count (1 when inline).
func (e *Engine) Workers() int { return e.pool.Workers() }

// SetPipelineDepth changes the inter-batch pipelining depth for
// subsequent RunBatches calls: 0 or 1 restores the fully serialized
// driver. Like SetWorkers it changes wall-clock time only — reports,
// windows, and checkpoints are identical at any depth.
func (e *Engine) SetPipelineDepth(depth int) error {
	if depth < 0 || depth > MaxPipelineDepth {
		return fmt.Errorf("engine: pipeline depth %d outside [0, %d]", depth, MaxPipelineDepth)
	}
	if depth == 0 {
		depth = 1
	}
	e.cfg.PipelineDepth = depth
	return nil
}

// PipelineDepth returns the effective inter-batch pipelining depth.
func (e *Engine) PipelineDepth() int {
	if e.cfg.PipelineDepth < 1 {
		return 1
	}
	return e.cfg.PipelineDepth
}

// SetObserver installs (or, with nil, removes) the lifecycle observer for
// subsequent batches. Observers see per-stage events but never influence
// reports; with none registered the pipeline records no timings at all.
func (e *Engine) SetObserver(obs Observer) { e.cfg.Observer = obs }

// Observer returns the currently installed lifecycle observer (nil when
// none is registered).
func (e *Engine) Observer() Observer { return e.cfg.Observer }

// poolFor resolves a Workers setting into a pool; 0 means inline.
func poolFor(workers int) *cluster.WorkerPool {
	if workers == 0 {
		return nil
	}
	return cluster.NewWorkerPool(workers)
}

// AttachReorderer ties a reorder buffer to the engine: its buffered
// tuples, sealing horizons, and drop count become part of the engine's
// checkpoints, and RunReordered charges its drops onto batch reports.
// Attaching nil detaches.
func (e *Engine) AttachReorderer(r *Reorderer) { e.reorder = r }

// Reorderer returns the attached reorder buffer (nil without one). After
// Restore it is the rebuilt buffer the checkpoint carried.
func (e *Engine) Reorderer() *Reorderer { return e.reorder }

// AttachThrottle ties an AIMD back-pressure controller to the engine so
// its current Factor survives checkpoints: a restored engine resumes at
// the throttled rate instead of silently springing back to full speed.
// Attaching nil detaches.
func (e *Engine) AttachThrottle(a *backpressure.AIMD) { e.throttle = a }

// Throttle returns the attached back-pressure controller (nil without
// one). After Restore it is the rebuilt controller the checkpoint carried.
func (e *Engine) Throttle() *backpressure.AIMD { return e.throttle }

// NoteDropped charges n reorder-buffer drops to the next committed
// batch's TuplesDropped.
func (e *Engine) NoteDropped(n int) {
	if n > 0 {
		e.pendingDrops += n
	}
}

// LastResult returns the previous batch's per-key Reduce output of the
// primary query.
func (e *Engine) LastResult() map[string]float64 { return e.LastResultOf(0) }

// LastResultOf returns the previous batch's output of query i (nil before
// the first batch), as a freshly built map.
func (e *Engine) LastResultOf(i int) map[string]float64 {
	if e.lastResults[i] == nil {
		return nil
	}
	return e.lastResults[i].Map(e.dict)
}

// Map resolves a result into a key-string map, the form the answer
// accessors hand out.
func (r *Result) Map(dict *intern.Dict) map[string]float64 {
	keys := dict.Strings()
	m := make(map[string]float64, len(r.IDs))
	for j, id := range r.IDs {
		m[keys[id]] = r.Vals[j]
	}
	return m
}

// WindowSnapshot returns the primary query's current window answer, or
// nil if it has no window.
func (e *Engine) WindowSnapshot() map[string]float64 {
	if e.aggs[0] == nil {
		return nil
	}
	return e.aggs[0].Snapshot()
}

// ApproxState returns the primary query's approximate estimator, or nil
// when Config.Approx is disabled.
func (e *Engine) ApproxState() *approx.Estimator { return e.ApproxStateOf(0) }

// ApproxStateOf returns query i's approximate estimator (nil when the
// tier is disabled).
func (e *Engine) ApproxStateOf(i int) *approx.Estimator {
	if e.approxes == nil {
		return nil
	}
	return e.approxes[i]
}

// Window returns the primary query's window aggregator (nil without a
// window).
func (e *Engine) Window() *window.Aggregator { return e.aggs[0] }

// WindowOf returns query i's window aggregator (nil without a window).
func (e *Engine) WindowOf(i int) *window.Aggregator { return e.aggs[i] }

// reportTail bounds the report history the engine retains — and embeds in
// every checkpoint — so neither grows with run length.
const reportTail = 1024

// Reports returns the most recent batch reports, oldest first: all of them
// until the run is longer than a fixed tail (1024 batches), the last 1024
// from then on.
func (e *Engine) Reports() []BatchReport {
	return e.reports[max(0, len(e.reports)-reportTail):]
}

// recordReport appends one committed batch's report to the bounded
// history. The history holds up to twice the tail; when it fills, the
// newest half moves to a fresh array (slices Reports handed out earlier
// keep their contents), so the cost per batch is O(1) amortized and the
// memory is flat.
func (e *Engine) recordReport(rep BatchReport) {
	if len(e.reports) >= 2*reportTail {
		e.reports = append(make([]BatchReport, 0, 2*reportTail), e.reports[len(e.reports)-reportTail:]...)
	}
	e.reports = append(e.reports, rep)
}

// RunBatches pulls n consecutive batch intervals from the source and
// processes them, returning their reports.
func (e *Engine) RunBatches(src workload.Stream, n int) ([]BatchReport, error) {
	return e.RunBatchesContext(context.Background(), src, n)
}

// RunBatchesContext is RunBatches with cooperative cancellation: once ctx
// is done the run stops between stages with the context's error and the
// reports of the batches already committed.
func (e *Engine) RunBatchesContext(ctx context.Context, src workload.Stream, n int) ([]BatchReport, error) {
	if e.PipelineDepth() > 1 {
		return e.runPipelined(ctx, src, n)
	}
	out := make([]BatchReport, 0, n)
	for i := 0; i < n; i++ {
		// Check before pulling from the source: sources are sequential, so
		// consuming an interval the engine then refuses to process would
		// desynchronize a later resume.
		if err := ctx.Err(); err != nil {
			return out, err
		}
		start := e.now
		end := start + e.cfg.BatchInterval
		tuples, err := src.Slice(start, end)
		if err != nil {
			return out, err
		}
		rep, err := e.StepContext(ctx, tuples, start, end)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// Step processes one micro-batch whose tuples arrived in [start, end).
// Tuples must carry timestamps inside the interval. Step is the row edge:
// it transposes the tuples once into the engine's reused column batch —
// interning keys in arrival order — and from there the batch is columns
// only. It then composes the staged pipeline (stage.go): Accumulate
// (Algorithm 1), Partition (Algorithm 2), Shuffle+Process (Algorithm 3),
// Recover (fault answers), and Window commit each run as an explicit
// Stage over a shared BatchContext, with observer events around every
// stage.
func (e *Engine) Step(tuples []tuple.Tuple, start, end tuple.Time) (BatchReport, error) {
	return e.StepContext(context.Background(), tuples, start, end)
}

// StepContext is Step with cooperative cancellation: the pipeline checks
// ctx between stages and the process stage's query dispatch honors it
// mid-barrier, so cancellation surfaces well within one batch's work. A
// cancelled batch commits nothing. If a pipeline task panics, StepContext
// converts the re-raised *cluster.TaskPanic into an error and fails the
// batch instead of unwinding the caller. A tuple whose weight does not fit
// the int32 weight column fails the batch with an error wrapping
// tuple.ErrWeightOverflow before anything is interned or committed.
func (e *Engine) StepContext(ctx context.Context, tuples []tuple.Tuple, start, end tuple.Time) (BatchReport, error) {
	if err := e.checkBatch(ctx, start, end); err != nil {
		return BatchReport{}, err
	}
	cb, err := e.transpose(tuples, e.batchIdx)
	if err != nil {
		return BatchReport{}, err
	}
	return e.step(ctx, cb, start, end)
}

// StepColumns is the column edge (the Receiver's): it processes one
// micro-batch the caller already holds as columns. The batch's IDs must be
// interned in the engine's dictionary (Dict); its Start/End fields are
// overwritten with the given interval. Reports are bit-identical to Step
// over the equivalent rows. The engine retains no part of cb after the
// call returns, so pooled batches can be recycled immediately.
func (e *Engine) StepColumns(cb *tuple.ColumnBatch, start, end tuple.Time) (BatchReport, error) {
	return e.StepColumnsContext(context.Background(), cb, start, end)
}

// StepColumnsContext is StepColumns with cooperative cancellation,
// mirroring StepContext.
func (e *Engine) StepColumnsContext(ctx context.Context, cb *tuple.ColumnBatch, start, end tuple.Time) (BatchReport, error) {
	if cb == nil {
		return BatchReport{}, fmt.Errorf("engine: nil column batch")
	}
	if err := e.checkBatch(ctx, start, end); err != nil {
		return BatchReport{}, err
	}
	return e.step(ctx, cb, start, end)
}

// checkBatch rejects a batch before any of it is touched: an empty or
// non-consecutive interval, or an already-cancelled context.
func (e *Engine) checkBatch(ctx context.Context, start, end tuple.Time) error {
	if end <= start {
		return fmt.Errorf("engine: empty batch interval [%v,%v)", start, end)
	}
	if start != e.now {
		return fmt.Errorf("engine: non-consecutive batch start %v, expected %v", start, e.now)
	}
	if ctx != nil {
		return ctx.Err()
	}
	return nil
}

// transpose is the one place caller rows become columns: it fills the
// engine's reused column batch, interning keys into the engine dictionary
// in arrival order. The pipelined driver rotates the scratch per in-flight
// batch; idx names the batch in errors.
func (e *Engine) transpose(tuples []tuple.Tuple, idx int) (*tuple.ColumnBatch, error) {
	if e.colScratch == nil {
		e.colScratch = &tuple.ColumnBatch{}
	}
	cb := e.colScratch
	cb.Reset()
	if err := cb.AppendRows(tuples, e.dict.Intern); err != nil {
		return nil, fmt.Errorf("engine: batch %d: %w", idx, err)
	}
	return cb, nil
}

// step is the one batch core behind both edges: it runs the pipeline over
// a checked column batch and commits the report.
func (e *Engine) step(ctx context.Context, cb *tuple.ColumnBatch, start, end tuple.Time) (rep BatchReport, err error) {
	defer func() {
		if v := recover(); v != nil {
			tp, ok := v.(*cluster.TaskPanic)
			if !ok {
				panic(v)
			}
			rep, err = BatchReport{}, fmt.Errorf("engine: batch %d: %w", e.batchIdx, tp)
		}
	}()
	cb.Start, cb.End = start, end
	if e.store != nil {
		// Replicate the raw input before any processing: the recover
		// stage recomputes lost outputs from this copy (Put copies, so the
		// reused column scratch is safe to hand over).
		e.store.Put(e.batchIdx, cb)
	}
	bc := &BatchContext{
		Index: e.batchIdx,
		Ctx:   ctx,
		Cols:  cb,
		// The batch's own interval: normally cfg.BatchInterval, but the
		// adaptive batch-sizing extension may vary it per batch, and all
		// stability accounting follows the actual interval.
		Interval: end - start,
	}
	if err := e.runPipeline(bc); err != nil {
		return BatchReport{}, err
	}
	e.recordReport(bc.Report)
	e.batchIdx++
	e.now = end
	return bc.Report, nil
}

// queryRun is the outcome of one query's Map-Reduce job over a batch.
type queryRun struct {
	mapMakespan     tuple.Time
	reduceMakespan  tuple.Time
	reduceDurations []tuple.Time
	sizes           []int
	result          Result
	// retries are the job's simulated task re-executions (speculative
	// backups and executor-loss retries) in deterministic task order.
	retries []metrics.TaskRetry
}

// queryScratch is the per-job working memory of runQuery, pooled across
// batches (and safe under concurrent query jobs — each Get hands out a
// distinct arena). Only slices that never escape into reports live here;
// anything a BatchReport or queryRun retains is freshly allocated.
type queryScratch struct {
	mapDurations []tuple.Time
	mapSpec      []bool
	reduceSpec   []bool
	perBucket    [][]Contrib
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func (s *queryScratch) reset(p, r int) {
	if cap(s.mapDurations) < p {
		s.mapDurations = make([]tuple.Time, p)
		s.mapSpec = make([]bool, p)
	}
	s.mapDurations = s.mapDurations[:p]
	s.mapSpec = s.mapSpec[:p]
	for i := 0; i < p; i++ {
		s.mapDurations[i] = 0
		s.mapSpec[i] = false
	}
	if cap(s.perBucket) < r {
		s.perBucket = make([][]Contrib, r)
		s.reduceSpec = make([]bool, r)
	}
	s.perBucket = s.perBucket[:r]
	s.reduceSpec = s.reduceSpec[:r]
	for j := 0; j < r; j++ {
		s.perBucket[j] = s.perBucket[j][:0]
		s.reduceSpec[j] = false
	}
}

// jobSpec pins the simulated substrate one query job runs on for one
// batch: the schedulable cores per stage and the executor kill (if any)
// afflicting the Map stage. Values are fixed by the driver before the
// jobs fan out, so concurrent jobs stay deterministic.
type jobSpec struct {
	batch       int
	mapCores    int
	reduceCores int
	kill        fault.Event
	hasKill     bool
}

// injectTask applies scripted fault inflation to one simulated task
// duration: a straggle event stretches it, and speculative re-execution
// (when enabled) caps the stretch at threshold + original, modeling the
// backup copy that launches at the threshold and wins. The returned flag
// reports that a backup actually ran.
func (e *Engine) injectTask(batch int, stage fault.Stage, task, ntasks int, base tuple.Time) (tuple.Time, bool) {
	if e.injector == nil {
		return base, false
	}
	d := e.injector.Straggle(batch, stage, task, ntasks, base)
	if th := e.injector.Policy().SpeculativeAfter; th > 0 && d > th && th+base < d {
		return th + base, true
	}
	return d, false
}

// runQuery executes query qi's Map-Reduce job over the shared blocks:
// Map tasks (block fold + local bucket assignment, Algorithm 3 or
// hashing) run on the worker pool, the shuffle merges their outputs in
// block order on the calling goroutine, and per-bucket Reduce folds run
// on the pool again. seqBase numbers this job's simulated tasks: Map task
// i is seqBase+i and Reduce task j is seqBase+p+j, reproducing the
// sequential driver's straggler-injection pattern exactly.
func (e *Engine) runQuery(qi int, blocks []*tuple.Block, seqBase int, spec jobSpec) (queryRun, error) {
	p := len(blocks)
	r := e.cfg.ReduceTasks

	// --- Map stage: simulated durations on the driver (pure functions of
	// block statistics and task sequence), data-plane folds on the
	// executor — the worker pool by default, engine shards when a
	// distributed executor is installed.
	scratch := queryScratchPool.Get().(*queryScratch)
	defer queryScratchPool.Put(scratch)
	scratch.reset(p, r)
	mapDurations := scratch.mapDurations
	mapSpec := scratch.mapSpec
	for i := 0; i < p; i++ {
		bl := blocks[i]
		base := e.cfg.Stragglers.apply(seqBase+i,
			e.cfg.Cost.MapTaskTime(bl.Size(), bl.Cardinality()))
		mapDurations[i], mapSpec[i] = e.injectTask(spec.batch, fault.StageMap, i, p, base)
	}
	outs, err := e.executor().MapBlocks(spec.batch, qi, e.dict, blocks, r)
	if err != nil {
		return queryRun{}, fmt.Errorf("bucket assignment: %w", err)
	}
	if len(outs) != p {
		return queryRun{}, fmt.Errorf("executor returned %d map outputs for %d blocks", len(outs), p)
	}
	// Executors that do not fuse bucket assignment into the Map fold
	// (remote shards) leave Assign nil; run the configured Assigner here
	// in block order — it is deterministic per block, so fused and
	// central assignment agree bit for bit.
	for i := range outs {
		if outs[i].Assign == nil && len(outs[i].Clusters) > 0 {
			outs[i].Assign, err = e.cfg.Assigner.Assign(blocks[i].ID, outs[i].Clusters, blocks[i].Ref, r)
			if err != nil {
				return queryRun{}, fmt.Errorf("bucket assignment: %w", err)
			}
		}
	}
	var retries []metrics.TaskRetry
	for i, sp := range mapSpec {
		if sp {
			retries = append(retries, metrics.TaskRetry{
				Batch: spec.batch, Query: qi, Stage: "map", Task: i,
				Attempt: 2, Reason: "speculative",
			})
		}
	}
	var mapMakespan tuple.Time
	if spec.hasKill {
		retryDelay := e.injector.Policy().Delay(2)
		var retried []int
		mapMakespan, _, retried, err = cluster.ListScheduleWithFailure(
			mapDurations, spec.mapCores,
			cluster.Failure{Time: spec.kill.After, Cores: spec.kill.Cores},
			retryDelay)
		for _, i := range retried {
			retries = append(retries, metrics.TaskRetry{
				Batch: spec.batch, Query: qi, Stage: "map", Task: i,
				Attempt: 2, Delay: retryDelay, Reason: "executor-lost",
			})
		}
	} else {
		mapMakespan, _, err = cluster.ListSchedule(mapDurations, spec.mapCores)
	}
	if err != nil {
		return queryRun{}, err
	}

	// --- Shuffle: group Map outputs per bucket in block order, enforcing
	// key locality. Per-(bucket, key) contribution order matches the
	// sequential driver, so non-commutative reduce functions fold
	// identically at any worker count.
	buckets := reducer.GetBucketSet(r)
	defer buckets.Release()
	perBucket := scratch.perBucket
	for i := range outs {
		for ci, b := range outs[i].Assign {
			c := outs[i].Clusters[ci]
			if err := buckets.Place(c, b); err != nil {
				return queryRun{}, fmt.Errorf("block %d: %w", blocks[i].ID, err)
			}
			perBucket[b] = append(perBucket[b], Contrib{ID: c.ID, Val: outs[i].Values[ci]})
		}
	}

	// --- Reduce stage: simulated durations on the driver, per-bucket
	// folds on the executor.
	sizes := buckets.Sizes()
	extra := buckets.ExtraFragments()
	reduceDurations := make([]tuple.Time, r) // escapes into the BatchReport
	reduceSpec := scratch.reduceSpec
	for j := 0; j < r; j++ {
		base := e.cfg.Stragglers.apply(seqBase+p+j,
			e.cfg.Cost.ReduceTaskTime(sizes[j], extra[j]))
		reduceDurations[j], reduceSpec[j] = e.injectTask(spec.batch, fault.StageReduce, j, r, base)
	}
	partials, err := e.executor().ReduceBuckets(spec.batch, qi, e.dict, perBucket)
	if err != nil {
		return queryRun{}, fmt.Errorf("reduce: %w", err)
	}
	if len(partials) != r {
		return queryRun{}, fmt.Errorf("executor returned %d reduce partials for %d buckets", len(partials), r)
	}
	for j, sp := range reduceSpec {
		if sp {
			retries = append(retries, metrics.TaskRetry{
				Batch: spec.batch, Query: qi, Stage: "reduce", Task: j,
				Attempt: 2, Reason: "speculative",
			})
		}
	}
	reduceMakespan, _, err := cluster.ListSchedule(reduceDurations, spec.reduceCores)
	if err != nil {
		return queryRun{}, err
	}

	// The batch output: the concatenation of the per-bucket folds
	// (disjoint by the key-locality invariant).
	n := 0
	for j := range partials {
		n += len(partials[j].IDs)
	}
	result := Result{IDs: make([]uint32, 0, n), Vals: make([]float64, 0, n)}
	for j := range partials {
		result.IDs = append(result.IDs, partials[j].IDs...)
		result.Vals = append(result.Vals, partials[j].Vals...)
	}
	return queryRun{
		mapMakespan:     mapMakespan,
		reduceMakespan:  reduceMakespan,
		reduceDurations: reduceDurations,
		sizes:           append([]int(nil), sizes...),
		result:          result,
		retries:         retries,
	}, nil
}

// accumCfg returns the Algorithm 1 configuration with estimates learned
// from the previous batch (N_Est, K_Avg).
func (e *Engine) accumCfg() stats.AccumulatorConfig {
	cfg := e.cfg.AccumConfig
	if e.estValid {
		if e.estTuples > 0 {
			cfg.EstimatedTuples = e.estTuples
		}
		if e.estKeys > 0 {
			cfg.EstimatedKeys = e.estKeys
		}
	}
	return cfg
}

// noteEstimates records one partitioned batch's statistics as the next
// batch's Algorithm 1 estimates. The partition stage calls it, so under
// pipelining the estimates for batch k+1 are ready as soon as batch k
// leaves the frontend — the same values a sequential run reads from batch
// k's report.
func (e *Engine) noteEstimates(st stats.BatchStats) {
	e.estTuples, e.estKeys, e.estValid = st.Tuples, st.Keys, true
}

// resetEstimates re-derives the estimate feedback from the committed
// reports, discarding anything a failed pipelined run learned from batches
// that never committed.
func (e *Engine) resetEstimates() {
	if last := len(e.reports) - 1; last >= 0 {
		e.estTuples, e.estKeys, e.estValid = e.reports[last].Tuples, e.reports[last].Keys, true
	} else {
		e.estTuples, e.estKeys, e.estValid = 0, 0, false
	}
}

// postSort routes PostSortMode through the pooled post-sorter. The
// returned slice (and its per-key column groups) is owned by the sorter
// and valid until its next use.
func (e *Engine) postSort(cb *tuple.ColumnBatch) []stats.SortedKey {
	if e.post == nil {
		e.post = stats.NewPostSorter(e.dict)
	}
	return e.post.Sort(cb)
}

// accumulate routes the batch's columns through Algorithm 1, creating or
// resetting the accumulator with estimates learned from the previous
// batch: the contiguous ID column drives the frequency fold, with no
// per-row string hashing, on the driver goroutine.
func (e *Engine) accumulate(cb *tuple.ColumnBatch) error {
	cfg := e.accumCfg()
	if e.acc == nil {
		acc, err := stats.NewAccumulatorDict(cfg, e.dict, cb.Start, cb.End)
		if err != nil {
			return err
		}
		e.acc = acc
	} else if err := e.acc.Reset(cfg, cb.Start, cb.End); err != nil {
		return err
	}
	return e.acc.AddColumns(cb)
}
