// Package partition implements the batching-phase data partitioners
// (Problem I, Map-Input Partitioning): the existing techniques the paper
// surveys (time-based, shuffle, hash), the key-splitting state of the art
// it compares against (PK-2, PK-5, cAM), two classical bin-packing
// heuristics used in the Figure 6 ablation (First-Fit-Decreasing and
// Fragmentation-Minimization), and Prompt's own B-BPFI heuristic
// (Algorithm 2).
//
// Every partitioner reads the batch as columns and emits blocks of
// column runs (tuple.ColSlice views): the per-tuple techniques walk the ID
// column in arrival order, the sorted-input techniques slice the
// accumulator's per-key columns.
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
// per-key weight computation); a nil pool runs them inline.
type Input struct {
	Batch  *tuple.Batch
	Cols   *tuple.ColumnBatch
	Dict   *intern.Dict
	Sorted []stats.SortedKey
	Pool   *cluster.WorkerPool
}

// columns returns the batch in column form and the dictionary its IDs
// resolve in, transposing standalone row input.
func (in Input) columns() (*tuple.ColumnBatch, *intern.Dict, error) {
	if in.Cols != nil {
		return in.Cols, in.Dict, nil
	}
	dict := intern.NewDict(0)
	cb := &tuple.ColumnBatch{Start: in.Batch.Start, End: in.Batch.End}
	if err := cb.AppendRows(in.Batch.Tuples, dict.Intern); err != nil {
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

// newBlocks allocates p empty blocks with ids 0..p-1.
func newBlocks(p int) []*tuple.Block {
	blocks := make([]*tuple.Block, p)
	for i := range blocks {
		blocks[i] = tuple.NewBlock(i)
	}
	return blocks
}

// perTupleBuilder accumulates a per-tuple assignment (row -> block) over
// the batch's ID column and materializes blocks of per-key column runs,
// each block's runs in first-seen key order. It is shared by the online
// partitioners (time-based, shuffle, hash, PK-d, cAM), which decide block
// placement tuple-at-a-time.
//
// Keys get batch-local numbers in first-arrival order (key), so the
// partitioners can memoize per-key work — a key's string is hashed once
// per batch, not once per row.
type perTupleBuilder struct {
	p      int
	cb     *tuple.ColumnBatch
	keys   []string         // the dictionary's strings, by intern ID
	local  map[uint32]int32 // intern ID -> batch-local key number
	ids    []uint32         // batch-local key number -> intern ID
	runs   [][]keyRun       // per block, first-seen key order
	at     [][]int32        // per block: local key -> run index + 1 (0 = none)
	weight []int
}

// keyRun is one key's rows placed in one block.
type keyRun struct {
	key  int32 // batch-local key number
	cols tuple.ColSlice
}

// newPerTupleBuilder checks the input and returns a builder over its
// columns.
func newPerTupleBuilder(in Input, p int) (*perTupleBuilder, error) {
	if err := checkArgs(in, p); err != nil {
		return nil, err
	}
	cb, dict, err := in.columns()
	if err != nil {
		return nil, err
	}
	return &perTupleBuilder{
		p:      p,
		cb:     cb,
		keys:   dict.Strings(),
		local:  make(map[uint32]int32),
		runs:   make([][]keyRun, p),
		at:     make([][]int32, p),
		weight: make([]int, p),
	}, nil
}

// key returns the batch-local number of row's key and whether this row is
// the key's first arrival.
func (b *perTupleBuilder) key(row int) (k int32, first bool) {
	id := b.cb.IDs[row]
	if k, ok := b.local[id]; ok {
		return k, false
	}
	k = int32(len(b.ids))
	b.local[id] = k
	b.ids = append(b.ids, id)
	return k, true
}

// keyString returns the key string of a batch-local key number.
func (b *perTupleBuilder) keyString(k int32) string { return b.keys[b.ids[k]] }

// add places one row, whose key has batch-local number k, into block i.
func (b *perTupleBuilder) add(i int, k int32, row int) {
	at := b.at[i]
	for len(at) <= int(k) {
		at = append(at, 0)
	}
	b.at[i] = at
	if at[k] == 0 {
		b.runs[i] = append(b.runs[i], keyRun{key: k})
		at[k] = int32(len(b.runs[i]))
	}
	r := &b.runs[i][at[k]-1]
	r.cols = r.cols.Append(b.cb.TS[row], b.cb.Vals[row], b.cb.W[row])
	b.weight[i] += int(b.cb.W[row])
}

// weightOf returns the current tuple weight of block i.
func (b *perTupleBuilder) weightOf(i int) int { return b.weight[i] }

// cardinalityOf returns the current distinct-key count of block i.
func (b *perTupleBuilder) cardinalityOf(i int) int { return len(b.runs[i]) }

// contains reports whether block i already holds the key with batch-local
// number k.
func (b *perTupleBuilder) contains(i int, k int32) bool {
	return int(k) < len(b.at[i]) && b.at[i][k] != 0
}

// build materializes the blocks and their reference tables (split keys
// only; see tuple.SplitInfo).
func (b *perTupleBuilder) build() []*tuple.Block {
	// Fragment counts across all blocks determine split labels.
	frags := make([]int, len(b.ids))
	sizes := make([]int, len(b.ids))
	for i := range b.runs {
		for _, r := range b.runs[i] {
			frags[r.key]++
			sizes[r.key] += r.cols.Len()
		}
	}
	out := newBlocks(b.p)
	for i := range b.runs {
		for _, r := range b.runs[i] {
			key := b.keyString(r.key)
			out[i].AddDenseCols(key, b.ids[r.key], r.cols, r.cols.Weight())
			if frags[r.key] > 1 {
				out[i].Ref[key] = tuple.SplitInfo{
					Split:     true,
					TotalSize: sizes[r.key],
					Fragments: frags[r.key],
				}
			}
		}
	}
	return out
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
	var items []keyItem
	if cap(dst) >= len(sorted) {
		items = dst[:len(sorted)]
	} else {
		items = make([]keyItem, len(sorted))
	}
	pool.DoRanges(len(sorted), 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sk := sorted[i]
			items[i] = keyItem{key: sk.Key, id: sk.ID, cols: sk.Cols, size: sk.Cols.Weight()}
		}
	})
	return items
}

// items returns the input's packing items, computing weights on the
// input's pool.
func (in Input) items() ([]keyItem, error) {
	sorted, err := in.sortedKeys()
	if err != nil {
		return nil, err
	}
	return itemsFromSortedInto(nil, sorted, in.Pool), nil
}

// assignment records fragment placements key -> block -> tuples during
// bin packing, then materializes blocks.
type assignment struct {
	p      int
	placed []map[string]tuple.ColSlice
	order  [][]string
	ids    map[string]uint32 // each placed key's dictionary ID
	weight []int
}

func newAssignment(p int) *assignment {
	a := &assignment{
		p:      p,
		placed: make([]map[string]tuple.ColSlice, p),
		order:  make([][]string, p),
		ids:    make(map[string]uint32),
		weight: make([]int, p),
	}
	for i := 0; i < p; i++ {
		a.placed[i] = make(map[string]tuple.ColSlice)
	}
	return a
}

// place puts a fragment of the item (columns c with weight w) into block
// i.
func (a *assignment) place(i int, key string, id uint32, c tuple.ColSlice, w int) {
	if _, seen := a.placed[i][key]; !seen {
		a.order[i] = append(a.order[i], key)
	}
	a.placed[i][key] = a.placed[i][key].AppendCols(c)
	a.ids[key] = id
	a.weight[i] += w
}

// weightOf returns the current weight of block i.
func (a *assignment) weightOf(i int) int { return a.weight[i] }

// build materializes blocks with reference tables (split keys only).
func (a *assignment) build() []*tuple.Block {
	frags := make(map[string]int)
	sizes := make(map[string]int)
	for i := 0; i < a.p; i++ {
		for k, c := range a.placed[i] {
			frags[k]++
			sizes[k] += c.Len()
		}
	}
	out := newBlocks(a.p)
	for i := 0; i < a.p; i++ {
		for _, k := range a.order[i] {
			c := a.placed[i][k]
			out[i].AddDenseCols(k, a.ids[k], c, c.Weight())
			if frags[k] > 1 {
				out[i].Ref[k] = tuple.SplitInfo{
					Split:     true,
					TotalSize: sizes[k],
					Fragments: frags[k],
				}
			}
		}
	}
	return out
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
