package engine

import (
	"prompt/internal/tuple"
)

// BlockMapOut is the data-plane outcome of one Map task: the block's key
// clusters, their folded partial values, and (when computed by the
// executor) each cluster's Reduce bucket. Everything in it is a pure,
// deterministic function of the block and the query, which is what lets
// the work run anywhere — the driver goroutine, the worker pool, or a
// remote shard — without changing a single report bit.
type BlockMapOut struct {
	Clusters []tuple.Cluster
	Values   []float64
	// Assign aligns with Clusters: the Reduce bucket each cluster goes to.
	// The local executor fills it inside the Map task (fused, as the paper
	// has Map tasks assign their own output); a distributed coordinator
	// leaves it nil and the engine assigns centrally — the functions are
	// per-block deterministic, so both routes agree.
	Assign []int
}

// Contrib is one cluster's contribution to a Reduce bucket: the key and
// its block-local folded partial. Per-bucket contribution order is fixed
// by global block order, so non-commutative reduce functions fold
// identically wherever the fold runs.
type Contrib struct {
	Key string
	Val float64
}

// JobExecutor runs the data-plane of a query's Map-Reduce job: the
// per-block Map folds and the per-bucket Reduce folds. The engine keeps
// every simulation concern — task durations, straggler and fault
// injection, list scheduling, shuffle bookkeeping, window state — on its
// own driver, so two engines with different executors (in-process pool,
// in-process shards, real sockets) emit bit-identical BatchReports.
//
// MapBlocks returns one BlockMapOut per block, index-aligned. Executors
// that also assign buckets (the local pool does, fusing assignment into
// the Map task) fill Assign; executors that do not leave it nil and the
// engine runs the configured Assigner itself in block order.
//
// ReduceBuckets folds each bucket's contributions in order with the
// query's Reduce function, returning one per-key result map per bucket.
//
// batch is the micro-batch sequence number; distributed executors stamp
// it on task frames so shards can detect batch boundaries (their
// back-pressure controllers observe per-batch busy time).
type JobExecutor interface {
	MapBlocks(batch, qi int, blocks []*tuple.Block, reduceTasks int) ([]BlockMapOut, error)
	ReduceBuckets(batch, qi int, perBucket [][]Contrib) ([]map[string]float64, error)
}

// SetExecutor installs the data-plane executor for subsequent batches;
// nil restores the in-process worker-pool executor. Executors change
// where Map and Reduce folds physically run — reports are bit-identical
// under any executor.
func (e *Engine) SetExecutor(x JobExecutor) { e.exec = x }

// Executor returns the installed data-plane executor (nil when the
// in-process default is active).
func (e *Engine) Executor() JobExecutor { return e.exec }

// executor resolves the active executor.
func (e *Engine) executor() JobExecutor {
	if e.exec != nil {
		return e.exec
	}
	return localExec{e}
}

// MapBlock computes one block's key clusters and folded partial values
// for a query — the stateless per-block Map fold shared by the local
// executor and remote shards.
func MapBlock(q Query, bl *tuple.Block) ([]tuple.Cluster, []float64) {
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

// localExec is the default executor: Map folds (with fused bucket
// assignment) and Reduce folds on the engine's worker pool, exactly the
// single-process hot path. The index-addressed result slices are small
// (one element per block or bucket) and consumed within the batch, so
// they are allocated per call rather than pooled.
type localExec struct{ e *Engine }

func (x localExec) MapBlocks(_, qi int, blocks []*tuple.Block, reduceTasks int) ([]BlockMapOut, error) {
	e := x.e
	q := e.queries[qi]
	outs := make([]BlockMapOut, len(blocks))
	errs := make([]error, len(blocks))
	e.pool.Do(len(blocks), func(i int) {
		bl := blocks[i]
		clusters, values := MapBlock(q, bl)
		out := BlockMapOut{Clusters: clusters, Values: values}
		if len(clusters) > 0 {
			out.Assign, errs[i] = e.cfg.Assigner.Assign(bl.ID, clusters, bl.Ref, reduceTasks)
		}
		outs[i] = out
	})
	for i := range errs {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return outs, nil
}

func (x localExec) ReduceBuckets(_, qi int, perBucket [][]Contrib) ([]map[string]float64, error) {
	e := x.e
	q := e.queries[qi]
	partials := make([]map[string]float64, len(perBucket))
	e.pool.Do(len(perBucket), func(j int) {
		partials[j] = FoldBucket(q, perBucket[j])
	})
	return partials, nil
}

// FoldBucket folds one Reduce bucket's contributions in order — the
// stateless per-bucket Reduce fold shared by the local executor and
// remote shards. The result map is freshly allocated (it escapes into
// window state).
func FoldBucket(q Query, contribs []Contrib) map[string]float64 {
	agg := make(map[string]float64, len(contribs))
	for _, c := range contribs {
		if cur, ok := agg[c.Key]; ok {
			agg[c.Key] = q.Reduce(cur, c.Val)
		} else {
			agg[c.Key] = c.Val
		}
	}
	return agg
}
