package stats

import (
	"fmt"

	"prompt/internal/cluster"
	"prompt/internal/hashutil"
	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// ShardedAccumulator runs Algorithm 1 across several independent
// accumulator shards so the per-tuple statistics pass can use every core.
// Tuples route to shards by key hash, so each key's exact count and
// buffered tuple list live wholly in one shard; at the heartbeat the
// shards finalize independently and their outputs merge into one exactly
// sorted key list.
//
// The merge is deterministic by construction — shard routing depends only
// on the key and the (fixed) shard count, per-shard accumulation preserves
// arrival order, and the merged list is sorted with the canonical
// descending order — so the number of worker goroutines executing the
// shards changes wall-clock time only, never the partitioner's input.
// Relative to the single accumulator, the ordering handed to the
// partitioner is exactly sorted rather than CountTree-quasi-sorted (each
// shard's tree sees only its own keys, so the global quasi-order is not
// reconstructible); counts and tuple lists are identical.
//
// Every shard reads the one intern dictionary the batch's IDs were
// interned in; the shards intern nothing themselves, so ID order is fixed
// by the caller's transpose, not by worker scheduling. The merged output
// slice is reused across batches (valid until the next Reset), matching
// the single accumulator's contract.
type ShardedAccumulator struct {
	shards []*Accumulator
	dict   *intern.Dict
	// route[s] collects shard s's rows for the current batch, in arrival
	// order; reused across batches to avoid reallocation.
	route []tuple.ColumnBatch
	// bucket caches each intern ID's shard (hashutil.Bucket of the key),
	// computed once per key; -1 = not yet computed. Valid for the
	// accumulator's lifetime because the shard count is fixed.
	bucket []int32

	// Per-heartbeat scratch, reused across batches.
	errs   []error
	keys   [][]SortedKey
	stats  []BatchStats
	merged []SortedKey // reused merge output
}

// NewShardedDict returns a sharded accumulator with the given number of
// shards (>= 1) for the batch interval [start, end), over dict — the
// dictionary that interns the batches AddAllColumns receives. The
// configured estimates are split evenly across shards so each shard's
// initial f.step matches its expected share of the batch.
func NewShardedDict(cfg AccumulatorConfig, dict *intern.Dict, shards int, start, end tuple.Time) (*ShardedAccumulator, error) {
	if dict == nil {
		return nil, fmt.Errorf("stats: nil intern dictionary")
	}
	if shards < 1 {
		return nil, fmt.Errorf("stats: need >= 1 shard, got %d", shards)
	}
	sa := &ShardedAccumulator{
		shards: make([]*Accumulator, shards),
		dict:   dict,
		route:  make([]tuple.ColumnBatch, shards),
		errs:   make([]error, shards),
		keys:   make([][]SortedKey, shards),
		stats:  make([]BatchStats, shards),
	}
	scfg := cfg.perShard(shards)
	for i := range sa.shards {
		acc, err := NewAccumulatorDict(scfg, dict, start, end)
		if err != nil {
			return nil, err
		}
		sa.shards[i] = acc
	}
	return sa, nil
}

// perShard divides the batch-level estimates across shards, flooring at 1.
func (c AccumulatorConfig) perShard(shards int) AccumulatorConfig {
	if shards <= 1 {
		return c
	}
	c.EstimatedTuples = c.EstimatedTuples / shards
	if c.EstimatedTuples < 1 {
		c.EstimatedTuples = 1
	}
	c.EstimatedKeys = c.EstimatedKeys / shards
	if c.EstimatedKeys < 1 {
		c.EstimatedKeys = 1
	}
	return c
}

// Shards returns the shard count.
func (sa *ShardedAccumulator) Shards() int { return len(sa.shards) }

// Reset prepares every shard for the next batch interval.
func (sa *ShardedAccumulator) Reset(cfg AccumulatorConfig, start, end tuple.Time) error {
	scfg := cfg.perShard(len(sa.shards))
	for _, acc := range sa.shards {
		if err := acc.Reset(scfg, start, end); err != nil {
			return err
		}
	}
	return nil
}

// AddAllColumns ingests one batch interval's columns: a single routing
// scan walks the contiguous ID column (each key's shard is cached after
// its first resolution, so the steady state never hashes strings), splits
// the rows into per-shard column buffers preserving arrival order, and
// each shard runs its column fold on the pool (or inline with a nil pool).
func (sa *ShardedAccumulator) AddAllColumns(cb *tuple.ColumnBatch, pool *cluster.WorkerPool) error {
	n := len(sa.shards)
	for s := range sa.route {
		sa.route[s].Reset()
		sa.route[s].Start, sa.route[s].End = cb.Start, cb.End
	}
	for i := range cb.IDs {
		id := cb.IDs[i]
		for int(id) >= len(sa.bucket) {
			grown := make([]int32, 2*len(sa.bucket)+64)
			for j := copy(grown, sa.bucket); j < len(grown); j++ {
				grown[j] = -1
			}
			sa.bucket = grown
		}
		s := sa.bucket[id]
		if s < 0 {
			s = int32(hashutil.Bucket(sa.dict.Resolve(id), n))
			sa.bucket[id] = s
		}
		sa.route[s].Append(id, cb.TS[i], cb.Vals[i], cb.W[i])
	}
	errs := sa.errs
	for s := range errs {
		errs[s] = nil
	}
	pool.Do(n, func(s int) {
		errs[s] = sa.shards[s].AddColumns(&sa.route[s])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Finalize finalizes every shard on the pool, merges the outputs, and
// returns the exactly sorted key list plus the combined batch statistics.
// The returned slice is owned by the accumulator and valid until the next
// Reset.
func (sa *ShardedAccumulator) Finalize(pool *cluster.WorkerPool) ([]SortedKey, BatchStats) {
	n := len(sa.shards)
	keys, stats := sa.keys, sa.stats
	pool.Do(n, func(s int) {
		keys[s], stats[s] = sa.shards[s].Finalize()
	})
	total := 0
	for s := range keys {
		total += len(keys[s])
	}
	merged := sa.merged[:0]
	if cap(merged) < total {
		merged = make([]SortedKey, 0, total)
	}
	var st BatchStats
	for s := range keys {
		merged = append(merged, keys[s]...)
		st.Tuples += stats[s].Tuples
		st.Keys += stats[s].Keys
		st.TreeUpdates += stats[s].TreeUpdates
	}
	if n > 0 {
		st.Start, st.End = stats[0].Start, stats[0].End
	}
	SortKeysDesc(merged)
	sa.merged = merged
	return merged, st
}
