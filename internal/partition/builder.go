package partition

import (
	"slices"
	"sync"

	"prompt/internal/tuple"
)

// builder is the one block builder every partitioner feeds. A partitioner
// feeds it in one of two ways:
//
//   - Packers (Prompt, FFD, FragMin) place views of the accumulator's
//     per-key runs: place(block, item, cols, weight), where item indexes
//     the packing items. Placing copies no tuple data.
//   - Per-tuple schemes (time, shuffle, hash, PK-d, cAM) choose a block
//     per row: add(block, key, row). Keys get batch-local numbers in
//     first-arrival order and double as the items; each (block, key)
//     pair is a run. build lays every run out contiguously, rows in
//     arrival order and each block's runs in first-seen key order, by one
//     counting scatter into the block's own arena (tuple.Block.Arena), so
//     a rebuilt block set reuses its storage.
//
// build emits each block's placements in placement order — a same-block
// repeat of an item stays its own KeySlice — and labels the split items
// in the reference tables from one count of each item's distinct blocks.
//
// Builders are pooled and every slice is rewound in place, so
// steady-state partitioning allocates nothing. The ID slot array follows
// stats.HTable: release clears only the live keys' slots. Nothing in the
// built blocks references the builder's memory, which matters at pipeline
// depth 2, where two batches' block sets are live at once.
type builder struct {
	p        int
	items    []keyItem
	perBlock [][]fragItem // per block, in placement order
	weight   []int        // per block
	tally    []itemTally  // per item, counted by build

	// Per-tuple state: the batch, its dictionary's strings, and the runs.
	cb     *tuple.ColumnBatch
	strs   []string
	slot   []int32 // intern ID -> batch-local key number + 1; 0 = unseen
	runAt  []int32 // key*p + block -> run index + 1; 0 = no run yet
	runs   []run
	rowRun []int32 // row -> run index
	card   []int   // per block: distinct keys
	rows   []int   // per block: rows, counted by the scatter
	arenas []tuple.ColSlice
	// memo is the schemes' per-key scratch (a hashed block, d candidate
	// blocks), indexed by batch-local key number.
	memo []int

	// Algorithm 2's pass state.
	residuals []fragItem
	rest      []fragItem
	order     []int
}

// fragItem places a whole item or a fragment of it: an item index, the
// rows, and their weight.
type fragItem struct {
	item int
	cols tuple.ColSlice
	w    int
}

// run is one key's n rows, of weight w, in one block, for the per-tuple
// schemes. The scatter sets at to the run's offset in its block's arena
// and advances it row by row, ending at the run's end.
type run struct {
	key, block int32
	n, at      int32
	w          int
}

// itemTally is one item's reference-table figures: how many distinct
// blocks hold it (last is the last block counted) and its rows.
type itemTally struct {
	last, blocks int32
	rows         int
}

var builderPool = sync.Pool{New: func() any { return new(builder) }}

// packBuilder checks the input and returns a pooled builder over the
// input's packing items, descending by size.
func packBuilder(in Input, p int) (*builder, error) {
	if err := checkArgs(in, p); err != nil {
		return nil, err
	}
	sorted, err := in.sortedKeys()
	if err != nil {
		return nil, err
	}
	b := getBuilder(p)
	b.items = itemsFromSortedInto(b.items, sorted, in.Pool)
	return b, nil
}

// rowBuilder checks the input and returns a pooled builder over its
// columns, for a scheme that places row by row.
func rowBuilder(in Input, p int) (*builder, error) {
	if err := checkArgs(in, p); err != nil {
		return nil, err
	}
	cb, dict, err := in.columns()
	if err != nil {
		return nil, err
	}
	b := getBuilder(p)
	b.cb, b.strs = cb, dict.Strings()
	if n := len(b.strs); len(b.slot) < n {
		b.slot = append(b.slot, make([]int32, n-len(b.slot))...)
	}
	b.rowRun = slices.Grow(b.rowRun[:0], cb.Len())[:cb.Len()]
	return b, nil
}

// getBuilder takes a builder from the pool and rewinds it for p blocks.
func getBuilder(p int) *builder {
	b := builderPool.Get().(*builder)
	b.p = p
	b.items = b.items[:0]
	b.perBlock = rewound(b.perBlock, p)
	b.weight = zeroed(b.weight, p)
	b.card = zeroed(b.card, p)
	b.order = slices.Grow(b.order[:0], p)[:p]
	for i := range b.perBlock {
		b.perBlock[i] = b.perBlock[i][:0]
		b.order[i] = i
	}
	b.runAt = b.runAt[:0]
	b.runs = b.runs[:0]
	b.memo = b.memo[:0]
	b.residuals = b.residuals[:0]
	b.rest = b.rest[:0]
	return b
}

// release clears the live keys' slots and returns the builder to the
// pool.
func (b *builder) release() {
	if b.cb != nil {
		for _, it := range b.items {
			b.slot[it.id] = 0
		}
	}
	b.cb, b.strs = nil, nil
	builderPool.Put(b)
}

// rewound returns s resized to n, keeping the elements' storage.
func rewound[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// zeroed returns s resized to n and zeroed.
func zeroed(s []int, n int) []int {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// place records a fragment of item in block blk.
func (b *builder) place(blk, item int, cols tuple.ColSlice, w int) {
	b.perBlock[blk] = append(b.perBlock[blk], fragItem{item: item, cols: cols, w: w})
	b.weight[blk] += w
}

// key returns the batch-local number of row's key and whether this row is
// the key's first arrival.
func (b *builder) key(row int) (k int32, first bool) {
	id := b.cb.IDs[row]
	if s := b.slot[id]; s != 0 {
		return s - 1, false
	}
	k = int32(len(b.items))
	b.items = append(b.items, keyItem{key: b.strs[id], id: id})
	b.slot[id] = k + 1
	n := len(b.runAt)
	b.runAt = slices.Grow(b.runAt, b.p)[:n+b.p]
	clear(b.runAt[n:])
	return k, true
}

// keyString returns the key string of a batch-local key number.
func (b *builder) keyString(k int32) string { return b.items[k].key }

// add places one row, whose key has batch-local number k, into block blk.
func (b *builder) add(blk int, k int32, row int) {
	at := &b.runAt[int(k)*b.p+blk]
	if *at == 0 {
		b.runs = append(b.runs, run{key: k, block: int32(blk)})
		*at = int32(len(b.runs))
		b.card[blk]++
	}
	r := *at - 1
	w := int(b.cb.W[row])
	b.runs[r].n++
	b.runs[r].w += w
	b.weight[blk] += w
	b.rowRun[row] = r
}

// weightOf returns the current tuple weight of block blk.
func (b *builder) weightOf(blk int) int { return b.weight[blk] }

// cardinalityOf returns the current distinct-key count of block blk.
func (b *builder) cardinalityOf(blk int) int { return b.card[blk] }

// contains reports whether block blk already holds the key with
// batch-local number k.
func (b *builder) contains(blk int, k int32) bool { return b.runAt[int(k)*b.p+blk] != 0 }

// lightest returns the index of the block with the least weight.
func (b *builder) lightest() int {
	return slices.Index(b.weight, slices.Min(b.weight))
}

// build materializes the blocks with their reference tables (split items
// only), rebuilding set in place (see rewind).
func (b *builder) build(set []*tuple.Block) []*tuple.Block {
	out := rewind(set, b.p)
	if b.cb != nil {
		b.scatter(out)
	}
	// Blocks are visited in order, so an item lands in a new block
	// exactly when its last counted block differs.
	tally := slices.Grow(b.tally[:0], len(b.items))[:len(b.items)]
	for i := range tally {
		tally[i] = itemTally{last: -1}
	}
	for blk, frags := range b.perBlock {
		for _, fr := range frags {
			t := &tally[fr.item]
			t.rows += fr.cols.Len()
			if t.last != int32(blk) {
				t.last = int32(blk)
				t.blocks++
			}
		}
	}
	b.tally = tally
	for blk, frags := range b.perBlock {
		bl := out[blk]
		bl.PreAllocate(len(frags))
		for _, fr := range frags {
			it := &b.items[fr.item]
			bl.AddDenseCols(it.key, it.id, fr.cols, fr.w)
			if t := &tally[fr.item]; t.blocks > 1 {
				bl.Ref[it.key] = tuple.SplitInfo{Split: true, TotalSize: t.rows, Fragments: int(t.blocks)}
			}
		}
	}
	return out
}

// scatter is the per-tuple schemes' counting scatter: the run counts give
// every run an offset in its block's arena, runs in creation order (each
// block's first-seen key order), and one pass over the rows writes each
// row at its run's cursor. The runs then become the blocks' placements.
func (b *builder) scatter(out []*tuple.Block) {
	rows := zeroed(b.rows, b.p)
	for i := range b.runs {
		r := &b.runs[i]
		r.at = int32(rows[r.block])
		rows[r.block] += int(r.n)
	}
	b.rows = rows
	b.arenas = rewound(b.arenas, b.p)
	for blk, bl := range out {
		b.arenas[blk] = bl.Arena(rows[blk])
	}
	cb := b.cb
	for row, ri := range b.rowRun {
		r := &b.runs[ri]
		a := &b.arenas[r.block]
		a.TS[r.at] = cb.TS[row]
		a.Vals[r.at] = cb.Vals[row]
		a.W[r.at] = cb.W[row]
		r.at++
	}
	for _, r := range b.runs {
		a := &b.arenas[r.block]
		lo, hi := r.at-r.n, r.at
		b.perBlock[r.block] = append(b.perBlock[r.block], fragItem{
			item: int(r.key),
			cols: tuple.ColSlice{TS: a.TS[lo:hi:hi], Vals: a.Vals[lo:hi:hi], W: a.W[lo:hi:hi]},
			w:    r.w,
		})
	}
}
