package stats

import (
	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// KeyEntry is the per-key record stored in the HTable. It holds the key's
// buffered tuples and the auxiliary statistics driving the budgeted
// frequency publication of Algorithm 1:
//
//   - FreqCurrent: exact number of tuples received for the key this batch.
//   - FreqUpdated: the key's last published (approximate) count, the one
//     Finalize orders it by; the paper keeps it in a CountTree node.
//   - Budget: remaining publications allowed for the key this batch.
//   - FStep: frequency step — the count is published once every FStep
//     new tuples of its key.
//   - TStep: time step — low-frequency keys are refreshed when TStep time
//     has elapsed since the last publication, so cold keys do not go
//     stale.
//   - LastUpdate: time of the key's last publication.
type KeyEntry struct {
	Key string
	// ID is the key's dense intern ID.
	ID uint32
	// Cols buffers the key's tuples in arrival order. The backing arrays
	// survive arena rewinds, so steady-state ingestion allocates nothing.
	Cols        tuple.ColSlice
	FreqCurrent int
	FreqUpdated int
	Budget      int
	FStep       int
	TStep       tuple.Time
	LastUpdate  tuple.Time
	prefix      uint64 // keyPrefix(Key), Finalize's first tie-break
}

// HTable maps partitioning keys to their entries. The entry arena is the
// whole per-batch state of Algorithm 1: Finalize sorts its indices once,
// so no second structure mirrors the keys during the interval.
//
// Keys are addressed by their dense intern ID. Entries live in one flat
// arena reused batch after batch — per-key column buffers keep their
// backing arrays across Resets — and the ID → entry index translation is
// a flat int32 slot array, so steady-state ingestion allocates nothing.
type HTable struct {
	slot    []int32    // intern ID -> entry index + 1; 0 = absent this batch
	entries []KeyEntry // dense per-batch entry arena, reused across batches
}

// NewHTableDict returns an empty table addressing entries by their intern
// IDs in dict, sized for the keys dict already holds plus hint more.
func NewHTableDict(dict *intern.Dict, hint int) *HTable {
	return &HTable{
		slot:    make([]int32, dict.Len()+hint),
		entries: make([]KeyEntry, 0, hint),
	}
}

// Len returns the number of distinct keys.
func (h *HTable) Len() int { return len(h.entries) }

// GetID returns the entry for the interned key id, or nil. The pointer is
// valid until the next PutID or Reset.
func (h *HTable) GetID(id uint32) *KeyEntry {
	if int(id) >= len(h.slot) {
		return nil
	}
	if s := h.slot[id]; s != 0 {
		return &h.entries[s-1]
	}
	return nil
}

// PutID appends a fresh entry for the interned key id and returns it,
// zeroed except for Key, ID, the key's prefix, and a length-0 column
// buffer that keeps whatever backing arrays the arena slot held in an
// earlier batch. The caller guarantees the id is absent. The pointer is
// valid until the next PutID or Reset.
func (h *HTable) PutID(id uint32, key string) *KeyEntry {
	if int(id) >= len(h.slot) {
		h.growSlots(int(id) + 1)
	}
	n := len(h.entries)
	if n < cap(h.entries) {
		h.entries = h.entries[:n+1]
	} else {
		h.entries = append(h.entries, KeyEntry{})
	}
	e := &h.entries[n]
	cols := e.Cols.Reset() // reuse the slot's previous backing arrays
	*e = KeyEntry{Key: key, ID: id, Cols: cols, prefix: keyPrefix(key)}
	h.slot[id] = int32(n) + 1
	return e
}

// growSlots extends the ID slot array to at least n entries. New slots
// are zero (absent), matching the empty state.
func (h *HTable) growSlots(n int) {
	if n < 2*len(h.slot) {
		n = 2 * len(h.slot)
	}
	grown := make([]int32, n)
	copy(grown, h.slot)
	h.slot = grown
}

// Reset clears the table for the next batch interval, reusing memory:
// only the slots of this batch's entries are cleared and the entry arena
// rewinds (column buffers keep their arrays).
func (h *HTable) Reset() {
	for i := range h.entries {
		h.slot[h.entries[i].ID] = 0
	}
	h.entries = h.entries[:0]
}
