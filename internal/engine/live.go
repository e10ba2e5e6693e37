package engine

import (
	"fmt"
	"time"

	"prompt/internal/cluster"
	"prompt/internal/reducer"
	"prompt/internal/tuple"
)

// LiveResult is the outcome of executing one partitioned micro-batch with
// real goroutines instead of the cost-model simulation. It carries the
// measured wall times the simulation predicts, so tests and benchmarks can
// check that the simulator's orderings (balanced blocks finish together,
// skewed blocks straggle) hold on real hardware.
type LiveResult struct {
	// MapTaskWall and ReduceTaskWall are the per-task execution times.
	MapTaskWall    []time.Duration
	ReduceTaskWall []time.Duration
	// MapWall and ReduceWall are the stage wall times (with tasks running
	// on the worker pool).
	MapWall    time.Duration
	ReduceWall time.Duration
	// Result is the batch's per-key Reduce output.
	Result map[string]float64
	// BucketSizes are the Reduce task input sizes.
	BucketSizes []int
}

// MaxMapTask returns the longest Map task time (the stage critical path
// under full parallelism).
func (lr *LiveResult) MaxMapTask() time.Duration { return maxDur(lr.MapTaskWall) }

// MaxReduceTask returns the longest Reduce task time.
func (lr *LiveResult) MaxReduceTask() time.Duration { return maxDur(lr.ReduceTaskWall) }

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// liveCluster is one key's mapped output inside a live Map task.
type liveCluster struct {
	cluster tuple.Cluster
	partial float64
	bucket  int
}

// RunLive executes the query over an already-partitioned batch with real
// goroutines: one Map task per block and one Reduce task per bucket, run
// on a pool of at most workers concurrent goroutines per stage (0 means
// GOMAXPROCS). The per-tuple work is the query's actual Map/Reduce
// functions, so wall times scale with real input sizes.
func RunLive(parted *tuple.Partitioned, q Query, assigner reducer.Assigner, reduceTasks, workers int) (lr *LiveResult, err error) {
	if parted == nil || len(parted.Blocks) == 0 {
		return nil, fmt.Errorf("engine: live run needs a partitioned batch")
	}
	if reduceTasks <= 0 {
		return nil, fmt.Errorf("engine: live run needs reduceTasks > 0, got %d", reduceTasks)
	}
	// A panicking map or reduce function surfaces as a failed batch, not a
	// torn-down process: the pool completes its barrier and re-raises the
	// panic here as a *cluster.TaskPanic.
	defer func() {
		if v := recover(); v != nil {
			tp, ok := v.(*cluster.TaskPanic)
			if !ok {
				panic(v)
			}
			lr, err = nil, fmt.Errorf("engine: live run: %w", tp)
		}
	}()
	pool := cluster.NewWorkerPool(workers)
	q = q.normalized()

	// --- Map stage -------------------------------------------------------
	type mapOutput struct {
		clusters []liveCluster
		err      error
	}
	blocks := parted.Blocks
	outputs := make([]mapOutput, len(blocks))
	taskWall := make([]time.Duration, len(blocks))

	mapStart := time.Now()
	pool.Do(len(blocks), func(i int) {
		t0 := time.Now()
		bl := blocks[i]
		clusters, values := mapBlockFor(q, bl)
		out := mapOutput{}
		if len(clusters) > 0 {
			assign, err := assigner.Assign(bl.ID, clusters, bl.Ref, reduceTasks)
			if err != nil {
				out.err = err
			} else {
				out.clusters = make([]liveCluster, len(clusters))
				for ci := range clusters {
					out.clusters[ci] = liveCluster{
						cluster: clusters[ci],
						partial: values[ci],
						bucket:  assign[ci],
					}
				}
			}
		}
		outputs[i] = out
		taskWall[i] = time.Since(t0)
	})
	mapWall := time.Since(mapStart)
	for i := range outputs {
		if outputs[i].err != nil {
			return nil, fmt.Errorf("engine: live map task %d: %w", i, outputs[i].err)
		}
	}

	// Shuffle: group clusters per bucket, enforcing key locality.
	buckets := reducer.NewBucketSet(reduceTasks)
	perBucket := make([][]liveCluster, reduceTasks)
	for i := range outputs {
		for _, lc := range outputs[i].clusters {
			if err := buckets.Place(lc.cluster, lc.bucket); err != nil {
				return nil, fmt.Errorf("engine: live shuffle: %w", err)
			}
			perBucket[lc.bucket] = append(perBucket[lc.bucket], lc)
		}
	}

	// --- Reduce stage ----------------------------------------------------
	reduceWallTimes := make([]time.Duration, reduceTasks)
	results := make([]map[string]float64, reduceTasks)
	reduceStart := time.Now()
	pool.Do(reduceTasks, func(j int) {
		t0 := time.Now()
		agg := make(map[string]float64)
		for _, lc := range perBucket[j] {
			if cur, ok := agg[lc.cluster.Key]; ok {
				agg[lc.cluster.Key] = q.Reduce(cur, lc.partial)
			} else {
				agg[lc.cluster.Key] = lc.partial
			}
		}
		results[j] = agg
		reduceWallTimes[j] = time.Since(t0)
	})
	reduceWall := time.Since(reduceStart)

	merged := make(map[string]float64)
	for j := range results {
		for k, v := range results[j] {
			merged[k] = v
		}
	}
	return &LiveResult{
		MapTaskWall:    taskWall,
		ReduceTaskWall: reduceWallTimes,
		MapWall:        mapWall,
		ReduceWall:     reduceWall,
		Result:         merged,
		BucketSizes:    append([]int(nil), buckets.Sizes()...),
	}, nil
}

// mapBlockFor is the stateless form of Engine.mapBlock, shared by the live
// runtime.
func mapBlockFor(q Query, bl *tuple.Block) ([]tuple.Cluster, []float64) {
	clusters := make([]tuple.Cluster, 0, len(bl.Keys))
	values := make([]float64, 0, len(bl.Keys))
	idx := make(map[string]int, len(bl.Keys))
	for k := range bl.Keys {
		ks := &bl.Keys[k]
		kept := 0
		var folded float64
		// Fold the run's columns in place, in arrival order, assembling
		// each row on the stack for the Map function.
		for i := 0; i < ks.Cols.Len(); i++ {
			v, keep := q.Map(ks.Cols.Tuple(ks.Key, i))
			if !keep {
				continue
			}
			if kept == 0 {
				folded = v
			} else {
				folded = q.Reduce(folded, v)
			}
			kept++
		}
		if kept == 0 {
			continue
		}
		if j, ok := idx[ks.Key]; ok {
			clusters[j].Size += kept
			values[j] = q.Reduce(values[j], folded)
			continue
		}
		idx[ks.Key] = len(clusters)
		// The dense per-batch key number rides along (0 when the
		// partitioner assigns none): the shuffle's bucket set then indexes
		// a flat array instead of hashing key strings, and fragments of a
		// split key share the number by the partitioner contract — exactly
		// what the distributed executor already sends back as Dense.
		clusters = append(clusters, tuple.Cluster{Key: ks.Key, ID: ks.ID, Size: kept})
		values = append(values, folded)
	}
	return clusters, values
}
