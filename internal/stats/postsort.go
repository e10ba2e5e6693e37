package stats

import (
	"slices"

	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// PostSorter is the pooled implementation of the post-sort baseline: it
// groups a column batch per key by intern ID and sorts the keys by exact
// frequency, descending (key ascending as tie-break). Grouping is
// Algorithm 1's counting scatter in two passes — count each key's rows,
// then write every row at its key's cursor in one shared arena — so it
// preserves arrival order within a key, and SortKeysDesc is a strict
// total order over distinct keys, so the output depends on the batch
// alone, not on ID values. Every buffer is reused batch after batch.
//
// The returned slice and its per-key column runs are owned by the sorter
// and valid until the next Sort call, mirroring the accumulator's
// Finalize contract.
type PostSorter struct {
	dict *intern.Dict
	// at is indexed by intern ID: 1 + the key's index in seen during a
	// Sort, 0 otherwise (a Sort clears exactly the entries it set).
	at     []int32
	seen   []uint32 // IDs in first-arrival order for this batch
	cursor []int32  // per seen key: its row count, then its write cursor
	arena  tuple.ColSlice
	out    []SortedKey
}

// NewPostSorter returns a sorter resolving IDs through dict, the
// dictionary that interned the batches it will sort.
func NewPostSorter(dict *intern.Dict) *PostSorter {
	return &PostSorter{dict: dict}
}

// Sort groups the batch per key and returns the keys by exact frequency
// descending (key ascending as tie-break), the same contract as PostSort.
func (p *PostSorter) Sort(cb *tuple.ColumnBatch) []SortedKey {
	// Pass 1: count each key's rows, numbering keys in arrival order.
	p.seen, p.cursor = p.seen[:0], p.cursor[:0]
	for _, id := range cb.IDs {
		if int(id) >= len(p.at) {
			p.at = append(p.at, make([]int32, max(int(id)+1, 2*len(p.at))-len(p.at))...)
		}
		k := p.at[id]
		if k == 0 {
			p.seen = append(p.seen, id)
			p.cursor = append(p.cursor, 0)
			k = int32(len(p.seen))
			p.at[id] = k
		}
		p.cursor[k-1]++
	}
	// Pass 2: every key's run starts where the previous key's ends; one
	// pass writes each row at its key's cursor.
	var off int32
	for k, n := range p.cursor {
		p.cursor[k] = off
		off += n
	}
	n := cb.Len()
	arena := tuple.ColSlice{
		TS:   slices.Grow(p.arena.TS[:0], n)[:n],
		Vals: slices.Grow(p.arena.Vals[:0], n)[:n],
		W:    slices.Grow(p.arena.W[:0], n)[:n],
	}
	for i, id := range cb.IDs {
		k := p.at[id] - 1
		c := p.cursor[k]
		p.cursor[k] = c + 1
		arena.TS[c] = cb.TS[i]
		arena.Vals[c] = cb.Vals[i]
		arena.W[c] = cb.W[i]
	}
	p.arena = arena
	// Each cursor now sits at its run's end, the next run's start.
	out := p.out[:0]
	keys := p.dict.Strings() // one lock for the batch, not one per key
	var start int32
	for k, id := range p.seen {
		end := p.cursor[k]
		cols := tuple.ColSlice{
			TS:   arena.TS[start:end:end],
			Vals: arena.Vals[start:end:end],
			W:    arena.W[start:end:end],
		}
		out = append(out, SortedKey{Key: keys[id], ID: id, Count: int(end - start), Cols: cols})
		p.at[id] = 0
		start = end
	}
	SortKeysDesc(out)
	p.out = out
	return out
}
