// Package partition implements the batching-phase data partitioners
// (Problem I, Map-Input Partitioning): the existing techniques the paper
// surveys (time-based, shuffle, hash), the key-splitting state of the art
// it compares against (PK-2, PK-5, cAM), two classical bin-packing
// heuristics used in the Figure 6 ablation (First-Fit-Decreasing and
// Fragmentation-Minimization), and Prompt's own B-BPFI heuristic
// (Algorithm 2).
//
// Every partitioner reads the batch as columns and feeds one pooled block
// builder, which emits blocks of column runs (tuple.ColSlice). The
// sorted-input techniques (Prompt, FFD, FragMin) place views of the
// accumulator's per-key runs and copy no tuple data. The per-tuple
// techniques walk the ID column in arrival order and choose a block per
// row; one counting scatter then lays each (block, key) run contiguously
// into the block's own arena (tuple.Block.Arena), which the block set
// owns and rebuilds in place, batch after batch.
package partition

import (
	"fmt"
	"slices"

	"prompt/internal/cluster"
	"prompt/internal/intern"
	"prompt/internal/stats"
	"prompt/internal/tuple"
)

// Input is everything a partitioner may consult. The batch is Cols, a
// column batch whose IDs resolve in Dict (the engine hands over its own),
// or — for standalone callers — Batch, rows in arrival order, which
// Partition transposes once, on entry, over a private dictionary. Sorted
// is the frequency-aware accumulator's quasi-sorted key list; when absent,
// sorted-input partitioners derive it with a post-sort (the Figure 14a
// baseline behaviour) and never need the batch otherwise. Pool, when set,
// lets partitioners parallelize their data-independent passes (the
// per-key weight computation); a nil pool runs them inline. Blocks, when
// set, is a block set an earlier Partition call returned: the partitioner
// rewinds it and rebuilds the batch's blocks in place (see
// tuple.Block.Reset), so the caller must be done with that batch's
// blocks. Without it the blocks are freshly allocated.
type Input struct {
	Batch  *tuple.Batch
	Cols   *tuple.ColumnBatch
	Dict   *intern.Dict
	Sorted []stats.SortedKey
	Pool   *cluster.WorkerPool
	Blocks []*tuple.Block
}

// columns returns the batch in column form and the dictionary its IDs
// resolve in, transposing standalone row input.
func (in Input) columns() (*tuple.ColumnBatch, *intern.Dict, error) {
	if in.Cols != nil {
		return in.Cols, in.Dict, nil
	}
	dict := intern.NewDict(0)
	cb := &tuple.ColumnBatch{Start: in.Batch.Start, End: in.Batch.End}
	if err := cb.Transpose(in.Batch.Tuples, dict); err != nil {
		return nil, nil, fmt.Errorf("partition: %w", err)
	}
	return cb, dict, nil
}

// sortedKeys returns the descending key list, post-sorting the batch if
// the accumulator did not supply one.
func (in Input) sortedKeys() ([]stats.SortedKey, error) {
	if in.Sorted != nil {
		return in.Sorted, nil
	}
	cb, dict, err := in.columns()
	if err != nil {
		return nil, err
	}
	return stats.NewPostSorter(dict).Sort(cb), nil
}

// Partitioner splits one micro-batch into p data blocks for the Map stage.
// Implementations must place every tuple exactly once and return exactly p
// blocks (possibly empty ones). They must also fill each block's reference
// table so Map tasks can route split keys (Problem II).
type Partitioner interface {
	// Name identifies the technique in reports and registries.
	Name() string
	// Partition assigns the batch's tuples to p blocks.
	Partition(in Input, p int) ([]*tuple.Block, error)
}

// checkArgs validates the common preconditions.
func checkArgs(in Input, p int) error {
	if p <= 0 {
		return fmt.Errorf("partition: need p > 0 blocks, got %d", p)
	}
	if in.Cols == nil && in.Batch == nil {
		return fmt.Errorf("partition: nil batch")
	}
	if in.Cols != nil && in.Dict == nil {
		return fmt.Errorf("partition: column batch without its dictionary")
	}
	return nil
}

// rewind returns p empty blocks with ids 0..p-1, reusing set's blocks
// (rewound in place) and allocating only the ones it lacks.
func rewind(set []*tuple.Block, p int) []*tuple.Block {
	if cap(set) < p {
		set = append(set[:cap(set)], make([]*tuple.Block, p-cap(set))...)
	}
	set = set[:p]
	for i, bl := range set {
		if bl == nil {
			set[i] = tuple.NewBlock(i)
		} else {
			bl.Reset(i)
		}
	}
	return set
}

// splitCols cuts w units of weight off the front of c, returning the
// fragment, the remainder, and the fragment's actual weight (which may
// exceed w by at most one tuple's weight minus one, since tuples are
// indivisible).
func splitCols(c tuple.ColSlice, w int) (frag, rest tuple.ColSlice, fw int) {
	if w <= 0 {
		return c.Slice(0, 0), c, 0
	}
	acc := 0
	for i := range c.W {
		acc += int(c.W[i])
		if acc >= w {
			return c.Slice(0, i+1), c.Slice(i+1, c.Len()), acc
		}
	}
	return c, c.Slice(c.Len(), c.Len()), acc
}

// keyItem is a bin-packing item: one key with its tuples. Sorted-input
// partitioners work on these.
type keyItem struct {
	key  string
	id   uint32 // dictionary ID
	cols tuple.ColSlice
	size int // total tuple weight
}

// itemsFromSortedInto converts the accumulator's output into packing
// items, preserving its descending order, building into dst's backing
// array when it is large enough (the pooled hot path hands in last
// batch's buffer). The per-key weight sums touch every tuple in the batch,
// so the pass runs on the worker pool when one is supplied: each chunk of
// keys is independent and writes its own item slots, making the output
// identical at any worker count.
func itemsFromSortedInto(dst []keyItem, sorted []stats.SortedKey, pool *cluster.WorkerPool) []keyItem {
	// Grow with append's headroom: a batch one key wider than any before
	// must not reallocate the whole arena.
	items := slices.Grow(dst[:0], len(sorted))[:len(sorted)]
	pool.DoRanges(len(sorted), 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sk := sorted[i]
			items[i] = keyItem{key: sk.Key, id: sk.ID, cols: sk.Cols, size: sk.Cols.Weight()}
		}
	})
	return items
}

// Registry returns the standard set of partitioners used throughout the
// evaluation, keyed by the names the harness and CLI use.
func Registry() map[string]Partitioner {
	return map[string]Partitioner{
		"time":    NewTimeBased(),
		"shuffle": NewShuffle(),
		"hash":    NewHash(),
		"pk2":     NewPKd(2),
		"pk5":     NewPKd(5),
		"cam":     NewCAM(5),
		"ffd":     NewFirstFitDecreasing(),
		"fragmin": NewFragMin(),
		"prompt":  NewPrompt(),
	}
}

// Names returns the registry keys in deterministic order.
func Names() []string {
	r := Registry()
	names := make([]string, 0, len(r))
	for n := range r {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}
