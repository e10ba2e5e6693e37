package stats

import (
	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// KeyEntry is the per-key record stored in the HTable: the hot counters
// Algorithm 1's fold reads and writes on every arrival of the key, and
// nothing else — the key's rows live in the accumulator's arrival log and
// its string in the table's cold columns, so an entry is 56 bytes.
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
	FreqCurrent int
	FreqUpdated int
	Budget      int
	FStep       int
	TStep       tuple.Time
	LastUpdate  tuple.Time
	// ID is the key's dense intern ID.
	ID uint32
}

// HTable maps partitioning keys to their entries. The entry arena is the
// whole per-batch state of Algorithm 1: Finalize sorts its indices once,
// so no second structure mirrors the keys during the interval.
//
// Keys are addressed by their dense intern ID, and the ID → entry index
// translation is a flat int32 slot array. Entries live in one flat arena
// of hot counters; each key's string and the eight-byte prefix Finalize
// sorts by sit in cold columns beside it, written once at the key's first
// sighting. Every column is reused batch after batch, so steady-state
// ingestion allocates nothing.
type HTable struct {
	slot     []int32    // intern ID -> entry index + 1; 0 = absent this batch
	entries  []KeyEntry // dense per-batch entry arena, reused across batches
	keys     []string   // entry index -> key string (cold)
	prefixes []uint64   // entry index -> intern.KeyPrefix(key) (cold)
}

// NewHTableDict returns an empty table addressing entries by their intern
// IDs in dict, sized for the keys dict already holds plus hint more.
func NewHTableDict(dict *intern.Dict, hint int) *HTable {
	return &HTable{
		slot:     make([]int32, dict.Len()+hint),
		entries:  make([]KeyEntry, 0, hint),
		keys:     make([]string, 0, hint),
		prefixes: make([]uint64, 0, hint),
	}
}

// Len returns the number of distinct keys.
func (h *HTable) Len() int { return len(h.entries) }

// Index returns the entry index of the interned key id, or -1 if the key
// has no entry this batch.
func (h *HTable) Index(id uint32) int32 {
	if int(id) >= len(h.slot) {
		return -1
	}
	return h.slot[id] - 1
}

// PutID appends a zeroed entry for the interned key id, records its key
// string and prefix in the cold columns, and returns its index. The caller
// guarantees the id is absent.
func (h *HTable) PutID(id uint32, key string) int32 {
	if int(id) >= len(h.slot) {
		h.growSlots(int(id) + 1)
	}
	n := int32(len(h.entries))
	h.entries = append(h.entries, KeyEntry{ID: id})
	h.keys = append(h.keys, key)
	h.prefixes = append(h.prefixes, intern.KeyPrefix(key))
	h.slot[id] = n + 1
	return n
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
// only the slots of this batch's entries are cleared, and the entry arena
// and its cold columns rewind.
func (h *HTable) Reset() {
	for i := range h.entries {
		h.slot[h.entries[i].ID] = 0
	}
	h.entries = h.entries[:0]
	h.keys = h.keys[:0]
	h.prefixes = h.prefixes[:0]
}
