package engine

import (
	"context"
	"time"

	"prompt/internal/metrics"
	"prompt/internal/stats"
	"prompt/internal/tuple"
)

// StageName identifies one step of the batch lifecycle.
type StageName string

// The five stages of a batch, in execution order: front runs accumulate
// and partition (the batching phase), back runs process, recover and
// commit (the processing phase). Each maps onto one of the paper's
// extension points.
const (
	// StageAccumulate is the receiver/buffering step (Algorithm 1 when
	// frequency-aware accumulation is on; a no-op for post-sort mode,
	// whose sorting cost belongs to the partition stage).
	StageAccumulate StageName = "accumulate"
	// StagePartition finalizes batch statistics and splits the batch into
	// data blocks (Algorithm 2 or a baseline). Its measured wall time is
	// the partition time charged against the early-release slack.
	StagePartition StageName = "partition"
	// StageProcess runs every query's Map-Reduce job over the shared
	// blocks: Map tasks, bucket assignment (Algorithm 3 or hashing),
	// shuffle, and per-bucket Reduce folds.
	StageProcess StageName = "process"
	// StageRecover answers injected faults after processing: a batch whose
	// in-memory output was scripted lost is recomputed from the replicated
	// input, retrying with backoff per the RetryPolicy. Without a fault
	// plan the stage is a no-op charging zero time.
	StageRecover StageName = "recover"
	// StageCommit merges batch outputs into window state and closes the
	// batch: queueing, latency, and stability accounting plus the final
	// BatchReport.
	StageCommit StageName = "commit"
)

// BatchContext carries one micro-batch through its two halves (front, then
// back). Each stage reads the products of its predecessors and fills in
// its own; after the commit stage, Report holds the finished BatchReport.
// The context lives for exactly one batch.
type BatchContext struct {
	// Index is the batch sequence number (0-based).
	Index int
	// Ctx carries the caller's cancellation signal through the pipeline:
	// stages check it between runs and the process stage's query dispatch
	// honors it mid-barrier. Nil means no cancellation (background).
	Ctx context.Context
	// Cols is the batch: rows with timestamps in [Cols.Start, Cols.End),
	// in column form, IDs interned in the engine's dictionary. Every stage
	// reads it; nothing downstream of the edges sees rows.
	Cols *tuple.ColumnBatch
	// Interval is the batch's own interval length (End - Start). It
	// normally equals Config.BatchInterval, but adaptive batch sizing may
	// vary it per batch; stability accounting follows the actual value.
	Interval tuple.Time

	// Sorted and Stats are the accumulate/partition products: the
	// descending key list and the batch input statistics.
	Sorted []stats.SortedKey
	Stats  stats.BatchStats

	// Blocks, PartitionTime, and Overflow are the partition stage
	// products: the data blocks, the measured partitioning cost in
	// virtual time, and the part of it exceeding the early-release slack.
	Blocks        []*tuple.Block
	PartitionTime tuple.Time
	Overflow      tuple.Time

	// runs and Processing are the process stage products: each query's
	// job outcome and the total simulated processing time (overflow plus
	// all stage makespans, plus any recovery time added by the recover
	// stage).
	runs       []queryRun
	Processing tuple.Time

	// Cores is the effective simulated core count this batch's stages ran
	// on: the configured cores minus executors lost to injected kills.
	Cores int
	// retries are the simulated task re-executions this batch suffered
	// (executor losses and speculative backups), in (query, task) order.
	retries []metrics.TaskRetry
	// RecoveryAttempts and RecoveryTime are the recover stage products:
	// how many recomputation attempts a scripted output loss took and the
	// simulated time they added to Processing.
	RecoveryAttempts int
	RecoveryTime     tuple.Time

	// wallStart is the batch's wall-clock start, stamped with the
	// batch-start observer event so the batch-end event can report
	// end-to-end wall time even when front and back run on the pipelined
	// driver's two lanes.
	wallStart time.Time

	// Report is the finished batch report, filled by the commit stage.
	Report BatchReport
}

// simulated is the virtual time stage name charged to the batch, read
// after the stage ran for its observer event. Accumulation overlaps the
// batching interval and commit is bookkeeping, so both charge nothing.
func (ctx *BatchContext) simulated(name StageName) tuple.Time {
	switch name {
	case StagePartition:
		return ctx.PartitionTime
	case StageProcess:
		return ctx.Processing
	case StageRecover:
		return ctx.RecoveryTime
	}
	return 0
}
