package window

import (
	"fmt"
	"slices"

	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// SlotBatch is one retained batch's share of a slot's state: parallel
// columns with one entry per key the batch carried for the slot. Refs
// index a key table — SlotState.IDs here, the image's dictionary table once
// internal/migrate has packed the state for travel.
type SlotBatch struct {
	End  tuple.Time
	Refs []uint32
	Vals []float64
}

// SlotState is everything the window retains for one virtual slot: the
// slot's live keys and, per retained batch (oldest first, one entry per
// batch even when the slot is empty in it), their contributions. It shares
// no memory with the aggregator.
type SlotState struct {
	// IDs are the slot's distinct keys in the aggregator's dictionary.
	// ExportSlot and DetachSlot return them in ascending order, with every
	// batch's Refs ascending too, so equal states serialize identically.
	IDs     []uint32
	Batches []SlotBatch
}

// ExportSlot copies one slot's state out without disturbing it — the
// checkpoint's view of the window. It costs O(keys and entries of that
// slot).
func (ag *Aggregator) ExportSlot(slot int) SlotState {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	return ag.exportSlot(slot)
}

// DetachSlot removes one slot's state from the window and returns it: the
// donor half of a hand-off. AttachSlot of the returned state, on this
// aggregator or one retaining the same batches, rebuilds exactly what this
// call removed. Other slots are not touched, read or scanned.
func (ag *Aggregator) DetachSlot(slot int) SlotState {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	st := ag.exportSlot(slot)
	ag.dropLive(slot)
	for _, b := range ag.batches {
		col := &b.cols[slot]
		col.ids, col.vals = col.ids[:0], col.vals[:0]
	}
	return st
}

// exportSlot builds the slot's SlotState; the caller holds the write lock
// (the live list is put in ID order in place, which only changes an order
// nothing else depends on).
//
// A column is in arrival order — the result map's iteration order — and the
// export wants every batch in key order. Rather than sort each column, the
// slot's entries are transposed through a key-major staging area: counted
// per key, laid out key by key (each key's entries in batch order), then
// dealt back out to the batches in one ascending pass over the keys. Three
// linear passes, whatever the shape of the window.
func (ag *Aggregator) exportSlot(slot int) SlotState {
	live := ag.live[slot]
	slices.Sort(live)
	for i, id := range live {
		ag.cells[id].pos = int32(i)
	}
	st := SlotState{
		IDs:     append(make([]uint32, 0, len(live)), live...),
		Batches: make([]SlotBatch, len(ag.batches)),
	}
	// next[k] is where key k's next entry goes in the staging area; a
	// cell's n is exactly the number of entries the key has.
	next := make([]int, len(live)+1)
	for i, id := range live {
		next[i+1] = next[i] + int(ag.cells[id].n)
	}
	entries := next[len(live)]
	type staged struct {
		batch int
		val   float64
	}
	stage := make([]staged, entries)
	// One backing array per column kind, cut into per-batch pieces; fill[b]
	// is the batch's write cursor into them.
	refs, vals := make([]uint32, entries), make([]float64, entries)
	fill := make([]int, len(ag.batches))
	at := 0
	for bi, b := range ag.batches {
		col := &b.cols[slot]
		for j, id := range col.ids {
			k := ag.cells[id].pos
			stage[next[k]] = staged{bi, col.vals[j]}
			next[k]++
		}
		end := at + len(col.ids)
		st.Batches[bi] = SlotBatch{End: b.end, Refs: refs[at:end:end], Vals: vals[at:end:end]}
		fill[bi], at = at, end
	}
	k := 0
	for i, e := range stage {
		for i == next[k] { // next[k] now marks the end of key k's run
			k++
		}
		refs[fill[e.batch]], vals[fill[e.batch]] = uint32(k), e.val
		fill[e.batch]++
	}
	return st
}

// AttachSlot installs a slot's state: the recipient half of a hand-off and
// the restore path of a checkpoint. The state's IDs must belong to this
// aggregator's dictionary, in any order; table entries no batch references
// are ignored. It validates everything before it changes anything — the
// slot must be empty here (a slot has one owner), the batches must align
// with the retained ones end for end, every key must hash to the slot, and
// no key may appear twice in the table or in one batch — so a rejected
// state leaves the window exactly as it was. The keys' incremental state is
// rebuilt by folding the batches in order, as the recompute-on-evict path
// does, so aggregates land bit-identical to a window that never let the
// slot go. It costs O(keys and entries of that slot).
func (ag *Aggregator) AttachSlot(slot int, st SlotState) error {
	if slot < 0 || slot >= intern.Slots {
		return fmt.Errorf("window: slot %d out of range [0,%d)", slot, intern.Slots)
	}
	ag.mu.Lock()
	defer ag.mu.Unlock()
	if n := len(ag.live[slot]); n > 0 {
		return fmt.Errorf("window: slot %d already holds %d keys here", slot, n)
	}
	if len(st.Batches) != len(ag.batches) {
		return fmt.Errorf("window: attaching %d batches onto %d retained", len(st.Batches), len(ag.batches))
	}
	known := ag.dict.Len()
	for _, id := range st.IDs {
		if int(id) >= known {
			return fmt.Errorf("window: key id %d was never issued by this dictionary (%d keys)", id, known)
		}
		if s := ag.dict.Slot(id); s != slot {
			return fmt.Errorf("window: key %q belongs to slot %d, not %d", ag.dict.Resolve(id), s, slot)
		}
	}
	if known > len(ag.cells) {
		ag.cells = append(ag.cells, make([]cell, known-len(ag.cells))...)
	}
	// The slot is empty, so every cell named by the table is dead and its
	// pos is scratch: stamp each with its table index, and a key listed
	// twice shows up as a stamp that did not survive.
	for i, id := range st.IDs {
		ag.cells[id].pos = int32(i)
	}
	for i, id := range st.IDs {
		if ag.cells[id].pos != int32(i) {
			return fmt.Errorf("window: key %q listed twice in the slot's key table", ag.dict.Resolve(id))
		}
	}
	seen := make([]int32, len(st.IDs)) // seen[ref] = 1 + last batch carrying it
	for bi, sb := range st.Batches {
		if sb.End != ag.batches[bi].end {
			return fmt.Errorf("window: batch %d ends at %v, incoming state says %v", bi, ag.batches[bi].end, sb.End)
		}
		if len(sb.Refs) != len(sb.Vals) {
			return fmt.Errorf("window: batch ending %v carries %d keys and %d values", sb.End, len(sb.Refs), len(sb.Vals))
		}
		for _, r := range sb.Refs {
			if int(r) >= len(st.IDs) {
				return fmt.Errorf("window: key reference %d out of range [0,%d)", r, len(st.IDs))
			}
			if seen[r] == int32(bi)+1 {
				return fmt.Errorf("window: key %q appears twice in batch ending %v", ag.dict.Resolve(st.IDs[r]), sb.End)
			}
			seen[r] = int32(bi) + 1
		}
	}
	for bi, sb := range st.Batches {
		col := &ag.batches[bi].cols[slot]
		col.ids, col.vals = slices.Grow(col.ids, len(sb.Refs)), slices.Grow(col.vals, len(sb.Refs))
		for j, r := range sb.Refs {
			id := st.IDs[r]
			ag.fold(id, slot, sb.Vals[j])
			col.ids = append(col.ids, id)
			col.vals = append(col.vals, sb.Vals[j])
		}
	}
	return nil
}
