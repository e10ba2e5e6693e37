package engine

import (
	"sync"

	"prompt/internal/cluster"
	"prompt/internal/intern"
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

// Contrib is one cluster's contribution to a Reduce bucket: the key's
// dictionary ID and its block-local folded partial. Per-bucket
// contribution order is fixed by global block order, so non-commutative
// reduce functions fold identically wherever the fold runs.
type Contrib struct {
	ID  uint32
	Val float64
}

// Result is per-key output as a pair of columns: key IDs in the stream
// dictionary and their values. A Reduce bucket's fold is one, keys in
// first-seen contribution order; a batch's output is the concatenation of
// its buckets' (disjoint by key locality).
type Result struct {
	IDs  []uint32
	Vals []float64
}

// JobExecutor runs the data-plane of a query's Map-Reduce job: the
// per-block Map folds and the per-bucket Reduce folds. The engine keeps
// every simulation concern — task durations, straggler and fault
// injection, list scheduling, shuffle bookkeeping, window state — on its
// own driver, so two engines with different executors (in-process pool,
// in-process shards, real sockets) emit bit-identical BatchReports.
//
// dict is the engine's stream dictionary, in which every key ID of the
// blocks, the clusters, the contributions and the results resolves; a
// distributed executor mirrors it to its shards.
//
// MapBlocks returns one BlockMapOut per block, index-aligned. Executors
// that also assign buckets (the local pool does, fusing assignment into
// the Map task) fill Assign; executors that do not leave it nil and the
// engine runs the configured Assigner itself in block order.
//
// ReduceBuckets folds each bucket's contributions in order with the
// query's Reduce function (FoldBucket), returning one Result per bucket.
//
// batch is the micro-batch sequence number; distributed executors stamp
// it on task frames so shards can detect batch boundaries (their
// back-pressure controllers observe per-batch busy time).
type JobExecutor interface {
	MapBlocks(batch, qi int, dict *intern.Dict, blocks []*tuple.Block, reduceTasks int) ([]BlockMapOut, error)
	ReduceBuckets(batch, qi int, dict *intern.Dict, perBucket [][]Contrib) ([]Result, error)
}

// SetExecutor installs the data-plane executor for subsequent batches;
// nil restores the in-process worker-pool executor. Executors change
// where Map and Reduce folds physically run — reports are bit-identical
// under any executor.
func (e *Engine) SetExecutor(x JobExecutor) { e.exec = x }

// executor resolves the active executor.
func (e *Engine) executor() JobExecutor {
	if e.exec != nil {
		return e.exec
	}
	return localExec{e}
}

// Positions is a dedupe table indexed by key ID: entry id holds 1 + the
// output index of key id, 0 while the key is unseen. A fold sets entries
// for the keys it emits and clears exactly those before returning, so the
// table is all zeros between uses and costs O(output), never O(dictionary),
// to reset.
type Positions []int32

// Cover grows the table to hold IDs below n.
func (p *Positions) Cover(n int) {
	if len(*p) < n {
		*p = append(*p, make([]int32, n-len(*p))...)
	}
}

var positionsPool = sync.Pool{New: func() any { return new(Positions) }}

// GetPositions returns a pooled all-zero table covering IDs below n; give
// it back, all zeros again, with PutPositions.
func GetPositions(n int) *Positions {
	p := positionsPool.Get().(*Positions)
	p.Cover(n)
	return p
}

// PutPositions returns a table from GetPositions to the pool.
func PutPositions(p *Positions) { positionsPool.Put(p) }

// MapBlock computes one block's key clusters and folded partial values
// for a query — the stateless per-block Map fold shared by the local
// executor and remote shards. Clusters come out in first-seen key order;
// fragments of one key within the block fold into one cluster.
func MapBlock(q Query, bl *tuple.Block) ([]tuple.Cluster, []float64) {
	clusters := make([]tuple.Cluster, 0, len(bl.Keys))
	values := make([]float64, 0, len(bl.Keys))
	pp := GetPositions(0)
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
		pp.Cover(int(ks.ID) + 1)
		pos := *pp
		if j := pos[ks.ID] - 1; j >= 0 {
			clusters[j].Size += kept
			values[j] = q.Reduce(values[j], folded)
			continue
		}
		pos[ks.ID] = int32(len(clusters)) + 1
		clusters = append(clusters, tuple.Cluster{Key: ks.Key, ID: ks.ID, Size: kept})
		values = append(values, folded)
	}
	for _, c := range clusters {
		(*pp)[c.ID] = 0
	}
	PutPositions(pp)
	return clusters, values
}

// localExec is the default executor: Map folds (with fused bucket
// assignment) and Reduce folds on the engine's worker pool, exactly the
// single-process hot path. The index-addressed result slices are small
// (one element per block or bucket) and consumed within the batch, so
// they are allocated per call rather than pooled.
type localExec struct{ e *Engine }

func (x localExec) MapBlocks(_, qi int, _ *intern.Dict, blocks []*tuple.Block, reduceTasks int) ([]BlockMapOut, error) {
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

func (x localExec) ReduceBuckets(_, qi int, dict *intern.Dict, perBucket [][]Contrib) ([]Result, error) {
	return ReduceLocal(x.e.pool, x.e.queries[qi], dict, perBucket), nil
}

// ReduceLocal folds every bucket with FoldBucket on the pool (inline when
// nil). The buckets share one Positions table: key locality puts each ID
// in exactly one bucket, so the concurrent folds touch disjoint entries.
func ReduceLocal(pool *cluster.WorkerPool, q Query, dict *intern.Dict, perBucket [][]Contrib) []Result {
	pos := GetPositions(dict.Len())
	defer PutPositions(pos)
	partials := make([]Result, len(perBucket))
	pool.Do(len(perBucket), func(j int) {
		partials[j] = FoldBucket(q, perBucket[j], *pos)
	})
	return partials
}

// FoldBucket folds one Reduce bucket's contributions in order — the
// stateless per-bucket Reduce fold shared by the local executor and
// remote shards. Keys come out in first-seen order. pos must cover every
// contribution's ID and be all zeros; FoldBucket leaves it so. The result
// columns are freshly allocated.
func FoldBucket(q Query, contribs []Contrib, pos Positions) Result {
	out := Result{IDs: make([]uint32, 0, len(contribs)), Vals: make([]float64, 0, len(contribs))}
	for _, c := range contribs {
		if j := pos[c.ID] - 1; j >= 0 {
			out.Vals[j] = q.Reduce(out.Vals[j], c.Val)
			continue
		}
		pos[c.ID] = int32(len(out.IDs)) + 1
		out.IDs = append(out.IDs, c.ID)
		out.Vals = append(out.Vals, c.Val)
	}
	for _, id := range out.IDs {
		pos[id] = 0
	}
	return out
}
