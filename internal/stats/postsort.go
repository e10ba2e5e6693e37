package stats

import (
	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// PostSorter is the pooled implementation of the post-sort baseline: it
// groups a column batch per key by intern ID and sorts the keys by exact
// frequency, descending (key ascending as tie-break), with every per-key
// column group reused batch after batch. Grouping preserves arrival order
// within a key and SortKeysDesc is a strict total order over distinct
// keys, so the output depends on the batch alone, not on ID values.
//
// The returned slice and its per-key column groups are owned by the
// sorter and valid until the next Sort call, mirroring the accumulator's
// Finalize contract.
type PostSorter struct {
	dict *intern.Dict
	// gen marks which Sort call a slot's buffer belongs to, so slots are
	// logically cleared per batch without walking the whole table.
	gen   uint64
	slots []postSlot
	seen  []uint32 // IDs in first-arrival order for this batch
	out   []SortedKey
}

// postSlot is one key's reusable column group, addressed by intern ID.
type postSlot struct {
	gen  uint64
	cols tuple.ColSlice
}

// NewPostSorter returns a sorter resolving IDs through dict, the
// dictionary that interned the batches it will sort.
func NewPostSorter(dict *intern.Dict) *PostSorter {
	return &PostSorter{dict: dict}
}

// Sort groups the batch per key and returns the keys by exact frequency
// descending (key ascending as tie-break), the same contract as PostSort.
func (p *PostSorter) Sort(cb *tuple.ColumnBatch) []SortedKey {
	p.gen++
	p.seen = p.seen[:0]
	for i, id := range cb.IDs {
		if int(id) >= len(p.slots) {
			n := int(id) + 1
			if n < 2*len(p.slots) {
				n = 2 * len(p.slots)
			}
			grown := make([]postSlot, n)
			copy(grown, p.slots)
			p.slots = grown
		}
		sl := &p.slots[id]
		if sl.gen != p.gen {
			sl.gen = p.gen
			sl.cols = sl.cols.Reset()
			p.seen = append(p.seen, id)
		}
		sl.cols = sl.cols.Append(cb.TS[i], cb.Vals[i], cb.W[i])
	}
	out := p.out[:0]
	for _, id := range p.seen {
		sl := &p.slots[id]
		out = append(out, SortedKey{Key: p.dict.Resolve(id), ID: id, Count: sl.cols.Len(), Cols: sl.cols})
	}
	SortKeysDesc(out)
	p.out = out
	return out
}
