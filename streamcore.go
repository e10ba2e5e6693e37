package prompt

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"time"

	"prompt/internal/core"
	"prompt/internal/dist"
	"prompt/internal/engine"
)

// streamCore is the shared runtime behind Stream and MultiStream: the
// engine, the partitioning scheme, the optional cluster coordinator, the
// resolved configuration, and the elastic driver. Both public types embed
// it, so the batch lifecycle, runtime reconfiguration, elasticity, and
// the cluster surface behave identically whether one query runs or many.
type streamCore struct {
	eng    *engine.Engine
	scheme core.Scheme
	coord  *dist.Coordinator // non-nil when a Topology is configured
	// cfg tracks the stream's current configuration: the construction
	// Config with the runtime-changeable fields (parallelism, cores,
	// workers, observer) updated as Reconfigure and the elastic policy
	// act. Reconfigure diffs requested options against it.
	cfg     Config
	elastic *core.ElasticDriver // non-nil when cfg.Elasticity is enabled
	// imageLen is the length of the last Checkpoint image; the next one
	// starts with a buffer that size instead of growing into it.
	imageLen int
}

// newCore is the single construction path every public constructor —
// New, NewMulti, NewWithOptions, NewMultiWithOptions — funnels through.
func newCore(cfg Config, queries []Query) (streamCore, error) {
	ec, scheme, err := cfg.build()
	if err != nil {
		return streamCore{}, err
	}
	eng, err := engine.NewMulti(ec, queries)
	if err != nil {
		return streamCore{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return finishCore(cfg, eng, scheme, queries)
}

// restoreCore is newCore for Restore/RestoreMulti: the engine state comes
// from a checkpoint image instead of a fresh start. The elastic policy's
// rolling state is not part of the image — a restored elastic stream
// starts its policy fresh.
func restoreCore(cfg Config, queries []Query, image []byte) (streamCore, error) {
	ec, scheme, err := cfg.build()
	if err != nil {
		return streamCore{}, err
	}
	eng, err := engine.Restore(ec, queries, bytes.NewReader(image))
	if err != nil {
		return streamCore{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return finishCore(cfg, eng, scheme, queries)
}

func finishCore(cfg Config, eng *engine.Engine, scheme core.Scheme, queries []Query) (streamCore, error) {
	coord, err := cfg.Topology.connect(eng, queries)
	if err != nil {
		return streamCore{}, err
	}
	driver, err := cfg.Elasticity.build(eng)
	if err != nil {
		if coord != nil {
			coord.Close()
		}
		return streamCore{}, err
	}
	// Track the engine's resolved configuration so Reconfigure diffs
	// against reality, not against zero-valued defaults: replaying an
	// option with the effective value (the default scheme, the 1 s
	// interval, 8-task parallelism, …) is a no-op, not a rejection.
	ec := eng.Config()
	cfg.MapTasks, cfg.ReduceTasks = ec.MapTasks, ec.ReduceTasks
	cfg.Cores = ec.Cores
	cfg.Workers = ec.Workers
	cfg.PipelineDepth = ec.PipelineDepth
	cfg.EarlyReleaseFraction = ec.EarlyReleaseFraction
	cfg.Cost = ec.Cost
	cfg.Scheme = Scheme(scheme.Name)
	if cfg.BatchInterval == 0 {
		cfg.BatchInterval = time.Duration(ec.BatchInterval) * time.Microsecond
	}
	return streamCore{eng: eng, scheme: scheme, coord: coord, cfg: cfg, elastic: driver}, nil
}

// SchemeName reports which partitioning scheme the stream runs.
func (c *streamCore) SchemeName() string { return c.scheme.Name }

// Now returns the start of the next batch interval: tuples passed to the
// next ProcessBatch call must have timestamps in [Now, Now+BatchInterval).
func (c *streamCore) Now() Time { return c.eng.Now() }

// BatchInterval returns the configured heartbeat.
func (c *streamCore) BatchInterval() Time { return c.eng.Config().BatchInterval }

// Parallelism returns the current Map and Reduce task counts — the
// construction values until Reconfigure or an elastic policy changes
// them.
func (c *streamCore) Parallelism() (mapTasks, reduceTasks int) {
	ec := c.eng.Config()
	return ec.MapTasks, ec.ReduceTasks
}

// ProcessBatch ingests the tuples of the next batch interval and runs the
// full micro-batch lifecycle: statistics, partitioning, Map stage, bucket
// assignment, Reduce stage, fault recovery, and window maintenance. The
// rows are transposed once, at this edge, into the engine's column batch;
// nothing past it sees rows. Tuples must be stamped within
// [Now, Now+BatchInterval), and a Weight that does not fit the int32
// weight column fails the batch with ErrWeightOverflow, committing
// nothing.
func (c *streamCore) ProcessBatch(tuples []Tuple) (BatchReport, error) {
	return c.ProcessBatchContext(context.Background(), tuples)
}

// ProcessBatchContext is ProcessBatch with cooperative cancellation: the
// pipeline checks ctx between stages and inside the worker-pool barriers,
// so cancellation surfaces well within one batch's work. A cancelled
// batch commits nothing and the stream stays usable.
func (c *streamCore) ProcessBatchContext(ctx context.Context, tuples []Tuple) (BatchReport, error) {
	start := c.eng.Now()
	end := start + c.eng.Config().BatchInterval
	rep, err := c.eng.StepContext(ctx, tuples, start, end)
	if err != nil {
		return BatchReport{}, err
	}
	br := newBatchReport(c.scheme.Name, rep)
	if err := c.observeElastic(rep); err != nil {
		return br, err
	}
	return br, nil
}

// Run pulls n consecutive batch intervals from the source and processes
// them, returning their reports. It is RunContext with
// context.Background().
func (c *streamCore) Run(src BatchSource, n int) ([]BatchReport, error) {
	return c.RunContext(context.Background(), src, n)
}

// RunContext drives n batches with cooperative cancellation: once ctx is
// done the run stops — between batches, between pipeline stages, or
// mid-barrier inside the worker pool — with the context's error and the
// reports of the batches already committed. Nothing of the in-flight
// batch is committed and no goroutines are left behind.
func (c *streamCore) RunContext(ctx context.Context, src BatchSource, n int) ([]BatchReport, error) {
	stream := batchSourceStream{src: src}
	if c.elastic == nil {
		// The engine's drive loop, at any pipeline depth: it overlaps
		// consecutive batches up to the configured depth, committing
		// strictly in batch order.
		reps, err := c.eng.RunBatchesContext(ctx, stream, n)
		return newBatchReports(c.scheme.Name, reps), err
	}
	// An elastic stream steps one batch at a time: its policy must observe
	// each report before the next batch is admitted.
	out := make([]BatchReport, 0, n)
	for i := 0; i < n; i++ {
		reps, err := c.eng.RunBatchesContext(ctx, stream, 1)
		if err != nil {
			return out, err
		}
		out = append(out, newBatchReport(c.scheme.Name, reps[0]))
		if err := c.observeElastic(reps[0]); err != nil {
			return out, err
		}
	}
	return out, nil
}

// batchSourceStream adapts the public BatchSource to the engine's pull
// interface so Run can hand the drive loop to the engine. The engine
// pulls intervals sequentially; Reset is never called on a live run.
type batchSourceStream struct{ src BatchSource }

func (s batchSourceStream) Slice(start, end Time) ([]Tuple, error) { return s.src(start, end) }

func (s batchSourceStream) Reset() {}

// observeElastic hands one committed batch's report to the elastic
// driver, which applies the policy's decision for subsequent batches, and
// tracks the parallelism it leaves behind.
func (c *streamCore) observeElastic(rep engine.BatchReport) error {
	if c.elastic == nil {
		return nil
	}
	if _, err := c.elastic.Observe(rep); err != nil {
		return fmt.Errorf("%w: elastic action: %v", ErrBadConfig, err)
	}
	c.cfg.MapTasks, c.cfg.ReduceTasks = c.Parallelism()
	return nil
}

// Reconfigure applies options to the running stream at the next batch
// boundary. Only the runtime-changeable options are accepted —
// WithParallelism, WithCores, WithWorkers, WithObserver,
// WithPipelineDepth; every other
// option (scheme, batch interval, topology, …) describes
// construction-time structure, and asking for a different value returns
// an error wrapping ErrBadConfig with the stream unchanged. Passing a
// construction-time option with its current value is a no-op, so a saved
// option list can be replayed safely.
func (c *streamCore) Reconfigure(opts ...Option) error {
	next := c.cfg
	for _, opt := range opts {
		if err := opt(&next); err != nil {
			return err
		}
	}
	// Diff away the runtime-changeable fields; anything else that moved
	// is a construction-time change this stream cannot absorb. Observers
	// are excluded from the diff (their dynamic types may be
	// incomparable) and re-applied unconditionally below.
	frozen, base := next, c.cfg
	frozen.MapTasks, frozen.ReduceTasks = base.MapTasks, base.ReduceTasks
	frozen.Cores = base.Cores
	frozen.Workers = base.Workers
	frozen.PipelineDepth = base.PipelineDepth
	frozen.Observer, base.Observer = nil, nil
	if !reflect.DeepEqual(frozen, base) {
		return fmt.Errorf("%w: Reconfigure accepts only runtime options (WithParallelism, WithCores, WithWorkers, WithObserver, WithPipelineDepth); build a new stream to change anything else", ErrBadConfig)
	}
	if next.MapTasks != c.cfg.MapTasks || next.ReduceTasks != c.cfg.ReduceTasks {
		if err := c.eng.SetParallelism(next.MapTasks, next.ReduceTasks); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	if next.Cores != c.cfg.Cores {
		if err := c.eng.SetCores(next.Cores); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	if next.Workers != c.cfg.Workers {
		if err := c.eng.SetWorkers(next.Workers); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
	}
	if next.PipelineDepth != c.cfg.PipelineDepth {
		if err := c.eng.SetPipelineDepth(next.PipelineDepth); err != nil {
			return fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		next.PipelineDepth = c.eng.PipelineDepth()
	}
	c.eng.SetObserver(next.Observer)
	c.cfg = next
	return nil
}

// SetCores changes the simulated core budget for subsequent batches and
// restores any cores lost to injected kills — including when the count
// is unchanged, which Reconfigure(WithCores(cores)) treats as a no-op. It
// is the resource manager's re-provisioning act.
func (c *streamCore) SetCores(cores int) error {
	if err := c.eng.SetCores(cores); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	c.cfg.Cores = cores
	return nil
}

// SetObserver installs (or, with nil, removes) a batch-lifecycle observer
// for subsequent batches; see Observer and Collector. Observers never
// influence reports. Reconfigure(WithObserver(obs)) composes observers and
// rejects nil, so SetObserver(nil) is the way to detach them.
func (c *streamCore) SetObserver(obs Observer) {
	c.eng.SetObserver(obs)
	c.cfg.Observer = obs
}

// Rescale changes the number of key-range owners for subsequent batches.
// The handoff happens at the next batch boundary: every virtual slot
// whose owner changes is extracted from the window state, carried through
// the migration codec, and re-applied — bit-identically — so reports and
// windowed answers are unchanged from a static run. On a cluster the
// active shard set follows (clamped to the dialed topology) and handoff
// images replicate to the recipient shards. Elastic streams call this
// automatically; static streams may drive it directly.
func (c *streamCore) Rescale(owners int) error {
	if err := c.eng.Rescale(owners); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return nil
}

// Owners returns the current key-range owner count; 0 until the first
// Rescale (ownership tracking off, the static default).
func (c *streamCore) Owners() int { return c.eng.Owners() }

// Migrations returns how many virtual-slot handoffs rescaling has
// applied since the stream started.
func (c *streamCore) Migrations() int { return c.eng.Migrations() }

// Reports returns the most recent batch reports, oldest first. The history
// is a bounded tail: every report until the stream has run more than 1024
// batches, the last 1024 from then on, so a long-running stream's memory
// and checkpoint size do not grow with its age. Callers that need every
// report keep the ones ProcessBatch and Run return.
func (c *streamCore) Reports() []BatchReport {
	return newBatchReports(c.scheme.Name, c.eng.Reports())
}

// CoresLost reports how many simulated cores injected executor kills
// have removed; SetCores re-provisions the budget and clears it.
func (c *streamCore) CoresLost() int { return c.eng.CoresLost() }

// BackpressureFactor is the cluster admission factor in [0, 1]: the
// minimum AIMD factor any live shard piggybacked on its latest reply.
// Sources should multiply their offered rate by it. Without a cluster —
// or before the first shard reply — it is 1.
func (c *streamCore) BackpressureFactor() float64 {
	if c.coord == nil {
		return 1
	}
	return c.coord.BackpressureFactor()
}

// ShardsDown reports how many cluster shards are currently marked dead
// (their folds recomputed locally). Without a cluster it is 0. Shard
// loss never changes answers — only wall-clock time.
func (c *streamCore) ShardsDown() int {
	if c.coord == nil {
		return 0
	}
	return c.coord.Down()
}

// Close releases the stream's cluster connections, if any. The stream
// itself holds no other resources; a closed stream must not process
// further batches. Close on a single-process stream is a no-op.
func (c *streamCore) Close() error {
	if c.coord == nil {
		return nil
	}
	coord := c.coord
	c.coord = nil
	return coord.Close()
}

// Checkpoint serializes the stream's driver state — batch position,
// window contents, the bounded report tail (see Reports), reorder buffer,
// throttle, pending rescales — so a new process can Restore and resume
// exactly where this one stopped; the image's size follows the state, not
// the stream's age. Call it between batches. Cluster shards hold no
// checkpointable state: the image is entirely driver-side, so a stream
// may checkpoint under one topology and restore under another. Restore
// reads only images in the current layout and rejects any other with an
// error rather than resuming from a partial state.
func (c *streamCore) Checkpoint() ([]byte, error) {
	var buf bytes.Buffer
	// Consecutive images are close in size; an eighth of headroom absorbs
	// the window's batch-to-batch variation without a regrow.
	buf.Grow(c.imageLen + c.imageLen/8)
	if err := c.eng.Checkpoint(&buf); err != nil {
		return nil, err
	}
	c.imageLen = buf.Len()
	return buf.Bytes(), nil
}
