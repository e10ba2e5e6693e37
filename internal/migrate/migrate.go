// Package migrate implements key-range state migration for live
// elasticity: when the executor set grows or shrinks, the window state
// and intern-dictionary slots of the affected keys move between owners
// at a batch boundary, bit-identically.
//
// Keys hash onto a fixed ring of virtual slots (NumSlots); an owner set
// of n executors owns slot s ↔ s mod n == owner. Rescaling from m to n
// owners therefore moves only the slots whose residue changes — the
// cheap, incremental repartitioning shape the elasticity literature
// calls for — and Plan enumerates exactly those handoffs.
//
// A slot's state travels as an Image: the per-query window contributions
// of the slot's keys (window.SlotBatch columns) plus the intern slots
// (id, key) those keys occupy, serialized with internal/codec, the codec
// under wire frames, estimator images and checkpoints too. The slots are
// the physical partitions of the window state, so Extract detaches one and
// Apply attaches one in time proportional to that slot's keys; Export is
// the non-destructive Extract the checkpoint writer uses. The engine
// round-trips every image through Encode/Decode even for in-process
// handoffs, so the codec path is always the one exercised.
package migrate

import (
	"fmt"
	"slices"
	"strings"

	"prompt/internal/intern"
	"prompt/internal/window"
)

// NumSlots is the fixed virtual-slot count keys hash onto. It bounds
// migration granularity: a rescale moves state in slot units, never
// single keys, and ownership is a pure function of slot and owner count.
const NumSlots = intern.Slots

// Owner returns the executor owning slot s among n owners (n >= 1).
func Owner(slot, owners int) int {
	if owners < 1 {
		owners = 1
	}
	return slot % owners
}

// Handoff is one slot changing owner in a rescale.
type Handoff struct {
	Slot int
	From int
	To   int
}

// Plan enumerates the handoffs of rescaling from `from` owners to `to`
// owners, in slot order. Slots whose owner is unchanged do not appear;
// from == to yields an empty plan.
func Plan(from, to int) []Handoff {
	if from < 1 {
		from = 1
	}
	if to < 1 {
		to = 1
	}
	var plan []Handoff
	for s := 0; s < NumSlots; s++ {
		a, b := Owner(s, from), Owner(s, to)
		if a != b {
			plan = append(plan, Handoff{Slot: s, From: a, To: b})
		}
	}
	return plan
}

// DictSlot is one intern-dictionary entry traveling with a slot's keys.
type DictSlot struct {
	ID  uint32
	Key string
}

// QueryImage is one query's extracted window state: one SlotBatch per
// retained batch, positionally aligned with the aggregator's batch list,
// its Refs indexing the image's Dict table.
type QueryImage struct {
	Query   int
	Batches []window.SlotBatch
}

// Image is the serialized state of one slot handoff: the epoch (batch
// index the handoff commits at), the moving intern slots, and each
// windowed query's per-batch contributions for the slot's keys.
type Image struct {
	Slot    int
	Epoch   int
	From    int
	To      int
	Dict    []DictSlot
	Queries []QueryImage
}

// Keys returns how many distinct keys the image carries.
func (img *Image) Keys() int { return len(img.Dict) }

// Extract detaches the slot from every windowed aggregator and packs its
// state — window contributions plus intern slots — into an image.
// Aggregator entries may be nil (windowless queries). The image records
// each key's (id, key) pair in dict so the recipient can verify or extend
// its mirror; a window key dict has never seen is interned there.
func Extract(slot, epoch, from, to int, aggs []*window.Aggregator, dict *intern.Dict) *Image {
	return pack(slot, epoch, from, to, aggs, dict, (*window.Aggregator).DetachSlot)
}

// Export is Extract that leaves the window untouched: the checkpoint
// writer's copy of a slot.
func Export(slot, epoch, from, to int, aggs []*window.Aggregator, dict *intern.Dict) *Image {
	return pack(slot, epoch, from, to, aggs, dict, (*window.Aggregator).ExportSlot)
}

// pack builds a slot's image from each aggregator's SlotState. The image's
// key table is the union of the queries' key sets in ascending dict-ID
// order; a query whose own table already is that union (the single-query
// case, and queries over the same keys) keeps its references as exported.
func pack(slot, epoch, from, to int, aggs []*window.Aggregator, dict *intern.Dict,
	take func(*window.Aggregator, int) window.SlotState) *Image {
	img := &Image{Slot: slot, Epoch: epoch, From: from, To: to}
	var tables [][]uint32 // per query image: its key table in dict's IDs
	var union []uint32
	for qi, ag := range aggs {
		if ag == nil {
			continue
		}
		st := take(ag, slot)
		ids := st.IDs
		if own := ag.Dict(); own != dict {
			// A standalone aggregator numbers keys in its private
			// dictionary; the image speaks dict's numbering.
			ids = make([]uint32, len(st.IDs))
			for i, id := range st.IDs {
				ids[i] = dict.Intern(own.Resolve(id))
			}
		}
		tables = append(tables, ids)
		union = append(union, ids...)
		img.Queries = append(img.Queries, QueryImage{Query: qi, Batches: st.Batches})
	}
	slices.Sort(union)
	union = slices.Compact(union)
	img.Dict = make([]DictSlot, len(union))
	keys := dict.Strings()
	for i, id := range union {
		img.Dict[i] = DictSlot{ID: id, Key: keys[id]}
	}
	for qi, ids := range tables {
		if slices.Equal(ids, union) {
			continue
		}
		remap := make([]uint32, len(ids))
		for i, id := range ids {
			at, _ := slices.BinarySearch(union, id)
			remap[i] = uint32(at)
		}
		for _, b := range img.Queries[qi].Batches {
			for j, r := range b.Refs {
				b.Refs[j] = remap[r]
			}
		}
	}
	return img
}

// Apply attaches an image's state to the recipient's aggregators,
// verifying the image's intern slots against the dictionary (interning
// any key the recipient has not seen — a fresh owner's dictionary may
// trail the donor's). It is all-or-nothing: every check that does not
// need an aggregator runs first, each aggregator validates its share
// before changing anything (window.AttachSlot), and if a later query
// still refuses, the queries already attached are detached again, so a
// rejected image leaves every window as it was. The one trace a rejected
// image may leave is its keys interned — a dictionary entry answers
// nothing by itself. A key interned here is cloned first: a decoded
// image's keys are substrings of one copy of its key table (Decode), and
// the append-only dictionary must not keep that table alive.
func Apply(img *Image, aggs []*window.Aggregator, dict *intern.Dict) error {
	if img.Slot < 0 || img.Slot >= NumSlots {
		return fmt.Errorf("migrate: slot %d out of range [0,%d)", img.Slot, NumSlots)
	}
	for _, q := range img.Queries {
		if q.Query < 0 || q.Query >= len(aggs) {
			return fmt.Errorf("migrate: slot %d: query index %d out of range [0,%d)", img.Slot, q.Query, len(aggs))
		}
		if aggs[q.Query] == nil {
			return fmt.Errorf("migrate: slot %d: query %d has no window here but the image carries one", img.Slot, q.Query)
		}
	}
	ids := make([]uint32, len(img.Dict))
	for i, d := range img.Dict {
		have, ok := dict.Lookup(d.Key)
		switch {
		case !ok:
			have = dict.Intern(strings.Clone(d.Key))
		case have != d.ID:
			return fmt.Errorf("migrate: slot %d: key %q interned as %d here, image says %d",
				img.Slot, d.Key, have, d.ID)
		}
		ids[i] = have
	}
	for i, q := range img.Queries {
		ag := aggs[q.Query]
		table := ids
		if own := ag.Dict(); own != dict {
			table = make([]uint32, len(img.Dict))
			for j, d := range img.Dict {
				id, ok := own.Lookup(d.Key)
				if !ok {
					id = own.Intern(strings.Clone(d.Key))
				}
				table[j] = id
			}
		}
		if err := ag.AttachSlot(img.Slot, window.SlotState{IDs: table, Batches: q.Batches}); err != nil {
			for _, done := range img.Queries[:i] {
				aggs[done.Query].DetachSlot(img.Slot)
			}
			return fmt.Errorf("migrate: slot %d query %d: %w", img.Slot, q.Query, err)
		}
	}
	return nil
}
