// Package engine implements the distributed micro-batch stream processing
// substrate (the Spark Streaming stand-in): a receiver accumulates tuples
// per batch interval, the batching module partitions each batch into data
// blocks (with early batch release), the Map stage processes blocks in
// parallel, each Map task assigns its key clusters to Reduce buckets, and
// the Reduce stage aggregates per key. Stage execution runs on the
// simulated cluster; batching of batch x+1 overlaps processing of batch x
// exactly as in Figure 2 of the paper, with queueing when processing time
// exceeds the batch interval.
package engine

import (
	"fmt"

	"prompt/internal/approx"
	"prompt/internal/fault"
	"prompt/internal/metrics"
	"prompt/internal/partition"
	"prompt/internal/reducer"
	"prompt/internal/stats"
	"prompt/internal/tuple"
)

// Observer receives batch-lifecycle events from the staged pipeline; see
// metrics.Observer. The alias keeps the engine's configuration surface
// self-contained while the interface lives in the leaf metrics package
// (so the built-in Collector needs no engine import).
type Observer = metrics.Observer

// AccumMode selects how batch statistics are produced.
type AccumMode int

const (
	// FrequencyAware runs Algorithm 1 online during buffering (the Prompt
	// design), so the sorted key list is ready at the heartbeat.
	FrequencyAware AccumMode = iota
	// PostSortMode buffers blindly and sorts after the interval ends — the
	// Figure 14a baseline. Its sorting cost is charged against the early
	// release slack and overflows into processing time.
	PostSortMode
)

// String implements fmt.Stringer.
func (m AccumMode) String() string {
	switch m {
	case FrequencyAware:
		return "frequency-aware"
	case PostSortMode:
		return "post-sort"
	default:
		return fmt.Sprintf("AccumMode(%d)", int(m))
	}
}

// Config assembles a micro-batch engine.
type Config struct {
	// BatchInterval is the system heartbeat; it also bounds end-to-end
	// latency (latency = batch interval + processing time when stable).
	BatchInterval tuple.Time
	// MapTasks (p) is the number of data blocks per batch.
	MapTasks int
	// ReduceTasks (r) is the number of Reduce buckets.
	ReduceTasks int
	// Cores is the number of simulated cores available to run tasks. The
	// elasticity experiments adjust it through an executor pool instead.
	Cores int
	// Workers is the number of real OS worker goroutines executing the
	// batch pipeline: Map tasks, per-bucket Reduce folds, per-query jobs,
	// window merges, and the partitioner's weight pass. 0 keeps the
	// classic single-goroutine driver (everything inline); negative
	// selects GOMAXPROCS. Workers changes wall-clock time only — all
	// merging is deterministic, so reports are identical at any worker
	// count.
	Workers int
	// Partitioner is the batching-phase partitioner (Problem I).
	Partitioner partition.Partitioner
	// Assigner is the processing-phase bucket assigner (Problem II).
	Assigner reducer.Assigner
	// Cost is the simulated task cost model.
	Cost metrics.CostModel
	// Accum selects frequency-aware buffering or the post-sort baseline.
	Accum AccumMode
	// AccumConfig tunes Algorithm 1 (budget, initial estimates).
	AccumConfig stats.AccumulatorConfig
	// EarlyReleaseFraction is the slice of the batch interval reserved for
	// partitioning by the early batch release mechanism (§4.2; the paper
	// observes <= 5% suffices). Partitioning work beyond the slack delays
	// the processing start. Zero selects the default of 0.05; a negative
	// value disables the mechanism entirely (no slack), which the
	// ablation harness uses to expose the raw partitioning cost.
	EarlyReleaseFraction float64
	// MPIWeights blends the imbalance metrics in per-batch reports.
	MPIWeights metrics.Weights
	// ValidateBatches enables per-batch invariant checking (every tuple
	// placed once, key locality in buckets). Tests and examples turn it
	// on; sweeps leave it off for speed.
	ValidateBatches bool
	// PipelineDepth bounds how many consecutive batches may be in flight
	// at once inside RunBatches: while batch k is in its
	// process/recover/commit stages, batch k+1 may already run accumulate
	// and partition over its own double-buffered accumulator and
	// column-batch state. Commits stay strictly serialized in batch
	// order, so every report, window, and checkpoint is bit-identical to
	// depth 1 — pipelining changes wall-clock time only, exactly like
	// Workers. 0 or 1 keeps the classic fully serialized driver. Step and
	// StepColumns always run one batch at a time regardless of depth.
	PipelineDepth int
	// Stragglers injects deterministic task slowdowns (Figure 2's
	// unbalanced-execution cases II-IV): zero value disables injection.
	Stragglers StragglerModel
	// Observer, when set, receives batch-lifecycle events (batch start,
	// per-stage timings, batch end). Nil — the default — keeps the
	// pipeline observer-free with zero instrumentation overhead.
	Observer Observer
	// Faults is the scripted fault plan injected into the simulated
	// substrate: executor kills, per-task stragglers, and lost batch
	// outputs, all addressed by batch index. Nil or empty injects nothing.
	// Enabling faults also enables input replication (every batch is
	// stored until its output exits the widest query window) so lost
	// outputs can be recomputed.
	Faults *fault.Plan
	// Retry is the policy answering injected faults: attempt budget,
	// retry backoff, and the speculative-execution threshold. Zero-valued
	// fields take the defaults (4 attempts, 50ms backoff doubling).
	Retry fault.RetryPolicy
	// Approx enables the approximate-query tier: one bounded-memory
	// summary per query (Count-Min, Space-Saving, HyperLogLog, or a
	// window sampler) folded from the exact per-key results at commit.
	// The fold consumes the bit-identical batch results, so the summaries
	// are themselves bit-identical across worker counts, pipelining
	// depths, and checkpoint/restore. The zero value disables the tier.
	Approx approx.Spec
}

// StragglerModel makes every Every-th task (counted deterministically
// across batches and stages) run Factor times slower, simulating the
// node-level interference and GC pauses that stretch real task times.
type StragglerModel struct {
	// Every selects task frequency; 0 disables injection.
	Every int
	// Factor multiplies the afflicted task's duration (must be >= 1).
	Factor float64
}

// enabled reports whether injection is active.
func (s StragglerModel) enabled() bool { return s.Every > 0 && s.Factor > 1 }

// apply stretches the duration of task seq if it is afflicted.
func (s StragglerModel) apply(seq int, d tuple.Time) tuple.Time {
	if !s.enabled() || seq%s.Every != s.Every-1 {
		return d
	}
	return tuple.Time(float64(d) * s.Factor)
}

// validate rejects nonsensical models.
func (s StragglerModel) validate() error {
	if s.Every < 0 {
		return fmt.Errorf("engine: straggler Every must be >= 0, got %d", s.Every)
	}
	if s.Every > 0 && s.Factor < 1 {
		return fmt.Errorf("engine: straggler Factor must be >= 1, got %v", s.Factor)
	}
	return nil
}

// Defaults fills unset fields with the evaluation defaults.
func (c Config) withDefaults() Config {
	if c.BatchInterval == 0 {
		c.BatchInterval = tuple.Second
	}
	if c.MapTasks == 0 {
		c.MapTasks = 8
	}
	if c.ReduceTasks == 0 {
		c.ReduceTasks = 8
	}
	if c.Cores == 0 {
		c.Cores = c.MapTasks
	}
	if c.Partitioner == nil {
		c.Partitioner = partition.NewPrompt()
	}
	if c.Assigner == nil {
		c.Assigner = reducer.NewPrompt()
	}
	if c.Cost == (metrics.CostModel{}) {
		c.Cost = metrics.DefaultCostModel()
	}
	if c.AccumConfig == (stats.AccumulatorConfig{}) {
		c.AccumConfig = stats.DefaultAccumulatorConfig()
	}
	switch {
	case c.EarlyReleaseFraction == 0:
		c.EarlyReleaseFraction = 0.05
	case c.EarlyReleaseFraction < 0:
		c.EarlyReleaseFraction = 0
	}
	if c.MPIWeights == (metrics.Weights{}) {
		c.MPIWeights = metrics.EqualWeights
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 1
	}
	return c
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if c.BatchInterval <= 0 {
		return fmt.Errorf("engine: batch interval must be positive, got %v", c.BatchInterval)
	}
	if c.MapTasks <= 0 || c.ReduceTasks <= 0 {
		return fmt.Errorf("engine: need positive map and reduce tasks, got p=%d r=%d", c.MapTasks, c.ReduceTasks)
	}
	if c.Cores <= 0 {
		return fmt.Errorf("engine: need positive cores, got %d", c.Cores)
	}
	if c.EarlyReleaseFraction < 0 || c.EarlyReleaseFraction > 0.5 {
		return fmt.Errorf("engine: early release fraction %v outside [0, 0.5]", c.EarlyReleaseFraction)
	}
	if c.PipelineDepth < 0 || c.PipelineDepth > MaxPipelineDepth {
		return fmt.Errorf("engine: pipeline depth %d outside [0, %d]", c.PipelineDepth, MaxPipelineDepth)
	}
	if err := c.Cost.Validate(); err != nil {
		return err
	}
	if err := c.Stragglers.validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Retry.WithDefaults().Validate(); err != nil {
		return err
	}
	if err := c.Approx.Validate(); err != nil {
		return err
	}
	return c.MPIWeights.Validate()
}
