package prompt

import (
	"fmt"

	"time"

	"prompt/internal/core"
	"prompt/internal/engine"
	"prompt/internal/tuple"
)

// Config configures a Stream. The zero value runs Prompt with the
// evaluation defaults (1 s batches, 8 Map and 8 Reduce tasks) on the
// classic single-goroutine driver. NewWithOptions offers the same knobs
// as functional options.
type Config struct {
	// BatchInterval is the micro-batch heartbeat; it bounds end-to-end
	// latency (latency = interval + processing time while stable).
	BatchInterval time.Duration
	// MapTasks (p) and ReduceTasks (r) set the execution parallelism.
	MapTasks    int
	ReduceTasks int
	// Cores is the simulated core budget for stage execution; 0 means one
	// core per Map task.
	Cores int
	// Workers is the number of real OS worker goroutines executing the
	// batch pipeline (Map tasks, Reduce folds, per-query jobs, window
	// merges, the partitioner's weight pass). 0 keeps the single-goroutine
	// driver; negative selects GOMAXPROCS. Workers changes wall-clock time
	// only: reports are identical at any worker count.
	Workers int
	// Scheme selects the partitioning technique; the zero value selects
	// SchemePrompt. See the Scheme constants and ParseScheme.
	Scheme Scheme
	// EarlyReleaseFraction is the slice of the batch interval reserved for
	// partitioning (default 0.05, the paper's bound).
	EarlyReleaseFraction float64
	// Validate enables per-batch invariant checks (tuples placed exactly
	// once, key locality at the Reduce stage).
	Validate bool
	// PipelineDepth bounds how many consecutive batches may be in flight
	// at once when the stream drives itself from a source (Run,
	// RunContext): while batch k executes and commits, batch k+1 may
	// already be accumulating statistics and partitioning. Commits stay
	// strictly serialized in batch order, so reports, windowed answers,
	// and checkpoints are bit-identical to depth 1 — pipelining changes
	// wall-clock time only. 0 or 1 keeps the classic one-batch-at-a-time
	// driver; elastic streams always run one batch at a time (the policy
	// must observe each report before the next batch starts), as do
	// ProcessBatch calls.
	PipelineDepth int
	// Cost overrides the simulated task cost model; zero uses defaults.
	Cost CostModel
	// Observer, when set, receives batch-lifecycle events (batch start,
	// per-stage timings, batch end); see Observer and Collector. Nil —
	// the default — keeps the pipeline instrumentation-free.
	Observer Observer
	// Faults, when set, scripts deterministic failure injection for the
	// run; see FaultPlan and WithFaultPlan. Nil runs fault-free.
	Faults *FaultPlan
	// Retry tunes the recovery response to injected faults; the zero
	// value selects the defaults. See RetryPolicy.
	Retry RetryPolicy
	// Topology, when non-zero, scatters the data-plane folds across a
	// shard cluster — in-process (Local) or over sockets (Shards) — with
	// bit-identical reports and answers. See Topology, WithShards, and
	// WithTopology. The zero value keeps everything in-process.
	Topology Topology
	// Approx, when its Kind is set, runs an approximate query next to the
	// exact one: a bounded-memory summary (sketch or sampler) folded from
	// the exact per-key results at every batch commit, answering
	// point-frequency, top-k, and distinct-count questions with
	// advertised error bounds through the Approx accessors. Approximate
	// answers are bit-identical across worker counts, pipelining,
	// topologies, and checkpoint/restore. See ApproxQuery and
	// WithApproxQuery. The zero value disables the tier.
	Approx ApproxQuery
	// Elasticity, when enabled, turns the stream elastic: after every
	// batch the configured policy observes the report and may change the
	// Map and Reduce parallelism, with key-range ownership following the
	// Map task count — the window state of reassigned key ranges migrates
	// bit-identically at the next batch boundary, so reports and answers
	// match a static run. See Elasticity and WithElasticity. The zero
	// value keeps the parallelism static.
	Elasticity Elasticity
}

// build resolves the configuration into an engine config and scheme.
func (c Config) build() (engine.Config, core.Scheme, error) {
	scheme, err := c.Scheme.resolve()
	if err != nil {
		return engine.Config{}, core.Scheme{}, err
	}
	interval := tuple.FromDuration(c.BatchInterval)
	if c.BatchInterval == 0 {
		interval = tuple.Second
	} else if interval <= 0 {
		return engine.Config{}, core.Scheme{}, fmt.Errorf("%w: batch interval %v must be positive", ErrBadConfig, c.BatchInterval)
	}
	ec := engine.Config{
		BatchInterval:        interval,
		MapTasks:             c.MapTasks,
		ReduceTasks:          c.ReduceTasks,
		Cores:                c.Cores,
		Workers:              c.Workers,
		Cost:                 c.Cost,
		EarlyReleaseFraction: c.EarlyReleaseFraction,
		ValidateBatches:      c.Validate,
		PipelineDepth:        c.PipelineDepth,
		Observer:             c.Observer,
		Faults:               c.Faults,
		Retry:                c.Retry,
		Approx:               c.Approx.spec(),
	}
	ec = scheme.Apply(ec)
	return ec, scheme, nil
}
