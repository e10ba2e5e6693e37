// Package intern provides the per-stream key dictionary of the
// zero-allocation batch hot path: an append-only mapping from
// partitioning-key strings to dense uint32 IDs.
//
// Keys are interned once, at the engine's edge, and stay dense integers
// through the statistics, partitioning, shuffle, reduce and window
// structures, and across the wire (shards mirror the dictionary); the
// strings are resolved back only where something reads them — the user's
// Map function, the bucket assigners' split-key hash, the approximate
// tier's key-ordered fold, the answer accessors and checkpoints. Because
// the dictionary is append-only and shared across batches, the per-key ID
// is stable for the stream's lifetime, which lets the statistics hash
// table replace its string-keyed map with an ID-indexed slot array that
// is reused batch after batch.
//
// A Dict is safe for concurrent use. Every method takes its lock once per
// call: Intern, Lookup, Resolve and Slot once per key, InternBatch once
// per batch (a read lock for the lookups and, only when the batch holds
// new keys, one write lock for them). Hot loops take the append-only
// Strings and Slots views once and index them without locking; a view
// covers every ID issued before it was taken.
//
// The dictionary also fixes each key's state placement: keys hash onto
// Slots virtual slots — the unit the window state is partitioned by and
// that rescaling moves between owners — and because the dictionary is
// append-only the slot is computed once, at intern time, and cached
// beside the string, so no later layer hashes a key for placement again.
//
// The package also owns the key order. Sorter is the one key-ordered sort
// of the batch path — Algorithm 1's heartbeat order, Algorithm 3's cluster
// order, the approximate tier's fold and the checkpoint's result columns —
// a radix sort over a caller's primary key and the key's 8-byte prefix
// that reads later key bytes only to break prefix ties, and orders keys
// exactly as strings.Compare does.
package intern

import (
	"fmt"
	"sync"

	"prompt/internal/hashutil"
)

// Slots is the fixed virtual-slot count keys hash onto. Ownership of a
// slot is a pure function of slot and owner count (internal/migrate), so
// state moves in slot units, never single keys.
const Slots = 64

// SlotOf maps a key to its virtual slot.
func SlotOf(key string) int {
	return int(hashutil.Hash(key) % Slots)
}

// Dict is an append-only string ↔ uint32 dictionary. The zero value is
// ready to use.
type Dict struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	strs  []string
	slots []uint8 // slots[id] = SlotOf(strs[id]), cached at intern time
}

// NewDict returns a dictionary pre-sized for the given expected key
// cardinality (0 is fine).
func NewDict(hint int) *Dict {
	return &Dict{
		ids:   make(map[string]uint32, hint),
		strs:  make([]string, 0, hint),
		slots: make([]uint8, 0, hint),
	}
}

// noID marks a key InternBatch's read pass did not find. The dictionary
// never issues it (add refuses the 2^32-1st key).
const noID = ^uint32(0)

// Intern returns the dense ID for key, assigning the next free ID on
// first sight. IDs start at 0 and grow by one per distinct key.
func (d *Dict) Intern(key string) uint32 {
	d.mu.RLock()
	id, ok := d.ids[key]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok = d.ids[key]; ok {
		return id
	}
	return d.add(key)
}

// InternBatch interns a whole batch of keys at once: it sets ids[i] to the
// ID of key(i) for every i < len(ids). All keys are looked up under one
// read lock; the misses are then interned in index order under one write
// lock, each re-checked first (another goroutine, or an earlier miss of
// the same batch, may have added it meanwhile). The IDs are exactly those
// len(ids) Intern calls in index order would assign, and a batch of known
// keys never takes the write lock, so Strings and Slots readers do not
// wait on it.
func (d *Dict) InternBatch(ids []uint32, key func(i int) string) {
	misses := false
	d.mu.RLock()
	for i := range ids {
		id, ok := d.ids[key(i)]
		if !ok {
			id, misses = noID, true
		}
		ids[i] = id
	}
	d.mu.RUnlock()
	if !misses {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, id := range ids {
		if id != noID {
			continue
		}
		k := key(i)
		if id, ok := d.ids[k]; ok {
			ids[i] = id
		} else {
			ids[i] = d.add(k)
		}
	}
}

// add assigns key the next free ID and caches its slot. The caller holds
// the write lock and has checked that key is new.
func (d *Dict) add(key string) uint32 {
	if d.ids == nil {
		d.ids = make(map[string]uint32)
	}
	if len(d.strs) >= int(noID) {
		panic("intern: dictionary full")
	}
	id := uint32(len(d.strs))
	d.ids[key] = id
	d.strs = append(d.strs, key)
	d.slots = append(d.slots, uint8(SlotOf(key)))
	return id
}

// Lookup returns the ID for key without interning it.
func (d *Dict) Lookup(key string) (uint32, bool) {
	d.mu.RLock()
	id, ok := d.ids[key]
	d.mu.RUnlock()
	return id, ok
}

// Resolve returns the key string for id. It panics on an ID the
// dictionary never issued (always a caller bug: IDs only come from
// Intern).
func (d *Dict) Resolve(id uint32) string {
	d.mu.RLock()
	s := d.strs[id]
	d.mu.RUnlock()
	return s
}

// Strings returns the interned strings in ID order — index i holds the key
// with ID i — without copying them. The dictionary is append-only, so the
// view stays valid and unchanged while later keys are interned; it covers
// the IDs issued before the call, and callers must not modify it. It is
// Resolve for a caller about to resolve many IDs: one lock acquisition
// instead of one per ID.
func (d *Dict) Strings() []string {
	d.mu.RLock()
	strs := d.strs
	d.mu.RUnlock()
	return strs
}

// Slots returns the cached virtual slots in ID order — index i holds the
// slot of the key with ID i — without copying them. Like Strings it is an
// append-only view covering the IDs issued before the call: Slot for a
// caller about to place many IDs.
func (d *Dict) Slots() []uint8 {
	d.mu.RLock()
	slots := d.slots
	d.mu.RUnlock()
	return slots
}

// Slot returns the virtual slot of the key with the given id. Like
// Resolve it panics on an ID the dictionary never issued.
func (d *Dict) Slot(id uint32) int {
	d.mu.RLock()
	s := int(d.slots[id])
	d.mu.RUnlock()
	return s
}

// Len returns the number of interned keys (also the next free ID).
func (d *Dict) Len() int {
	d.mu.RLock()
	n := len(d.strs)
	d.mu.RUnlock()
	return n
}

// Snapshot returns the interned strings in ID order: index i holds the
// key with ID i. The checkpoint writer serializes this; restoring it
// with FromSnapshot reproduces every ID exactly.
func (d *Dict) Snapshot() []string {
	d.mu.RLock()
	out := make([]string, len(d.strs))
	copy(out, d.strs)
	d.mu.RUnlock()
	return out
}

// FromSnapshot rebuilds a dictionary whose IDs match the snapshot:
// strs[i] interns to ID i. It returns an error if the snapshot holds
// duplicate strings (which no Snapshot can produce).
func FromSnapshot(strs []string) (*Dict, error) {
	d := NewDict(len(strs))
	for i, s := range strs {
		if _, dup := d.ids[s]; dup {
			return nil, fmt.Errorf("intern: snapshot has duplicate key %q at index %d", s, i)
		}
		d.add(s)
	}
	return d, nil
}
