// Package tuple defines the core data model of the micro-batch stream
// processing engine: stream tuples, key clusters, data blocks, and
// micro-batches.
//
// The model follows the paper's schema: each tuple t = (ts, k, v) carries a
// source-assigned timestamp ts, a partitioning key k, and a value v. Keys
// are not unique; they partition tuples for distributed processing. A
// micro-batch is the set of tuples buffered during one batch interval; it is
// partitioned into data blocks, one per Map task.
package tuple

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// Time is a stream timestamp in microseconds since an arbitrary epoch. The
// engine runs on virtual time so simulations are deterministic and fast;
// live runtimes convert to and from wall-clock time at the boundary.
type Time int64

// Common durations expressed in Time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// FromDuration converts a time.Duration to virtual Time.
func FromDuration(d time.Duration) Time { return Time(d.Microseconds()) }

// Duration converts virtual Time to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) * time.Microsecond }

// Seconds reports t in (possibly fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the timestamp as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Tuple is a single stream record. Val carries the numeric payload used by
// the aggregate queries in the evaluation (click counts, taxi fares,
// quantities); Weight is the tuple's size contribution in abstract units
// (1 for the fixed-size tuples the paper assumes, but variable sizes are
// supported throughout).
type Tuple struct {
	TS     Time
	Key    string
	Val    float64
	Weight int
}

// NewTuple returns a unit-weight tuple.
func NewTuple(ts Time, key string, val float64) Tuple {
	return Tuple{TS: ts, Key: key, Val: val, Weight: 1}
}

// Cluster is a key cluster: one key's share of a Map task's output,
// C_k = {(k, v_i)}. Size is the number of tuples the cluster aggregates
// (its weight), which drives Reduce-stage cost; the folded partial value
// travels alongside in the engine, so the cluster itself stays a
// fixed-size descriptor.
//
// ID is the key's stream dictionary ID (see KeySlice.ID): the shuffle,
// the Reduce fold and the window address the key by it. Key stays for the
// readers of strings, the bucket assigners' split-key hash and tie-break.
type Cluster struct {
	Key  string
	Size int
	ID   uint32
}

// Batch is the buffered content of one batch interval before partitioning.
type Batch struct {
	// Interval bounds: tuples with Start <= TS < End belong to this batch.
	Start, End Time
	Tuples     []Tuple
}

// Span returns the batch interval length.
func (b *Batch) Span() Time { return b.End - b.Start }

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return len(b.Tuples) }

// TotalWeight sums the weights of all tuples.
func (b *Batch) TotalWeight() int {
	w := 0
	for i := range b.Tuples {
		w += b.Tuples[i].Weight
	}
	return w
}

// Cardinality counts distinct keys in the batch.
func (b *Batch) Cardinality() int {
	seen := make(map[string]struct{}, len(b.Tuples)/4+1)
	for i := range b.Tuples {
		seen[b.Tuples[i].Key] = struct{}{}
	}
	return len(seen)
}

// SplitInfo describes, inside a block's reference table, whether a key is
// split across several blocks and how large the key is batch-wide. Map
// tasks use this to route split keys by hashing (so all fragments of a key
// meet at the same Reduce task) while freely placing non-split keys.
//
// Reference tables hold entries for split keys only: a key absent from the
// table is whole in its block (Split false, Fragments 1). Keeping the
// tables sparse bounds their size by the number of split keys — a handful
// per batch — instead of the batch cardinality, which matters on the
// per-batch allocation hot path.
type SplitInfo struct {
	// Split reports whether the key has fragments in other blocks too.
	Split bool
	// TotalSize is the batch-wide number of tuples with this key.
	TotalSize int
	// Fragments is the number of blocks the key is split over (>= 1).
	Fragments int
}

// Block is one partition of a micro-batch: the input to a single Map task.
// Keys holds the per-key column runs in assignment order; Ref is the block
// reference table labelling split keys (and only split keys — see
// SplitInfo).
type Block struct {
	ID     int
	Keys   []KeySlice
	Ref    map[string]SplitInfo
	weight int
	// arena is the block's own row storage (see Arena).
	arena ColSlice

	card   int
	cardOK bool
}

// KeySlice is the run of one key's tuples (or one fragment of a split
// key) placed in a block, as a ColSlice view of its columns.
//
// ID is the key's ID in the dictionary the batch was interned in (the
// engine's, for engine batches): every partitioner sets it, and every
// fragment of a key carries the same ID in every block. From Map output
// to the window cell the key is this ID; Key is kept for the user's Map
// function and the bucket assigners.
type KeySlice struct {
	Key  string
	ID   uint32
	Cols ColSlice
}

// Len returns the number of tuples in the slice.
func (ks *KeySlice) Len() int { return ks.Cols.Len() }

// NewBlock returns an empty block with the given id.
func NewBlock(id int) *Block {
	return &Block{ID: id, Ref: make(map[string]SplitInfo)}
}

// PreAllocate sizes the block's key list for n key slices, avoiding
// incremental growth on the partitioning hot path. It must be called
// before the first AddDenseCols. The reference table is left alone: it
// holds split keys only (see SplitInfo), a handful per batch.
func (bl *Block) PreAllocate(n int) {
	if len(bl.Keys) == 0 {
		bl.Keys = slices.Grow(bl.Keys, n)
	}
}

// Reset empties the block for reuse as block id: the key list and the
// arena are truncated and the reference table cleared, all keeping their
// storage, and the weight and cardinality cache start over. Partitioners
// rebuild a caller's block set in place through it, batch after batch.
func (bl *Block) Reset(id int) {
	bl.ID = id
	bl.Keys = bl.Keys[:0]
	bl.arena = bl.arena.Reset()
	if bl.Ref == nil {
		bl.Ref = make(map[string]SplitInfo)
	} else {
		clear(bl.Ref)
	}
	bl.weight = 0
	bl.card, bl.cardOK = 0, false
}

// Arena returns n rows of the block's own column storage, reusing what
// the block held before its last Reset. A partitioner that copies rows
// rather than placing views of buffered columns lays them out here, so
// the rows live exactly as long as the block's contents: until its next
// Reset. A second call before Reset hands out the same storage again.
func (bl *Block) Arena(n int) ColSlice {
	a := bl.arena
	bl.arena = ColSlice{
		TS:   slices.Grow(a.TS[:0], n)[:n],
		Vals: slices.Grow(a.Vals[:0], n)[:n],
		W:    slices.Grow(a.W[:0], n)[:n],
	}
	return bl.arena
}

// AddDenseCols appends a key run whose total weight the caller already
// knows, carrying the key's dictionary ID (see KeySlice.ID). The
// partitioners hand in views of the buffered columns, so placing a run
// copies no tuple data.
func (bl *Block) AddDenseCols(key string, id uint32, cols ColSlice, weight int) {
	bl.Keys = append(bl.Keys, KeySlice{Key: key, ID: id, Cols: cols})
	bl.weight += weight
	bl.cardOK = false
}

// Weight is the total tuple weight in the block (its size |block|).
func (bl *Block) Weight() int { return bl.weight }

// Size is the number of tuples in the block.
func (bl *Block) Size() int {
	n := 0
	for i := range bl.Keys {
		n += bl.Keys[i].Len()
	}
	return n
}

// Cardinality is the number of distinct keys with at least one tuple in the
// block (||block||), counted by KeySlice.ID. A key split into several
// fragments within the same block (which partitioners avoid but is legal)
// counts once. The value is cached until the block is next modified.
func (bl *Block) Cardinality() int {
	if bl.cardOK {
		return bl.card
	}
	m := markPool.Get().(*marks)
	n := 0
	for i := range bl.Keys {
		id := bl.Keys[i].ID
		if int(id) >= len(*m) {
			*m = append(*m, make([]bool, int(id)+1-len(*m))...)
		}
		if !(*m)[id] {
			(*m)[id] = true
			n++
		}
	}
	for i := range bl.Keys {
		(*m)[bl.Keys[i].ID] = false
	}
	markPool.Put(m)
	bl.card = n
	bl.cardOK = true
	return bl.card
}

// marks is Cardinality's seen-table, indexed by key ID. It is all false
// between uses: a count clears exactly the entries it set, so a reset
// costs O(block), never O(dictionary).
type marks []bool

var markPool = sync.Pool{New: func() any { return new(marks) }}

// Partitioned is a fully partitioned micro-batch: the unit handed from the
// batching phase to the processing phase.
type Partitioned struct {
	Batch  *Batch
	Blocks []*Block
	// PartitionTime is how long the partitioning step took, charged against
	// the early-batch-release slack rather than the processing time.
	PartitionTime Time
}

// Validate checks structural invariants against the row batch: every
// tuple placed exactly once and reference tables consistent with actual
// fragment counts. It is ValidateBlocks with the expected counts taken
// from the rows.
func (p *Partitioned) Validate() error {
	want := make(map[string]int)
	for i := range p.Batch.Tuples {
		want[p.Batch.Tuples[i].Key]++
	}
	return ValidateBlocks(p.Blocks, want)
}

// ValidateBlocks checks a partitioned batch whose keys have the given
// tuple counts: the blocks hold exactly those tuples, each key's fragments
// sum to its count, and the reference tables label exactly the keys that
// are split. The engine's paranoid mode (ValidateBatches) and the tests
// use it.
func ValidateBlocks(blocks []*Block, want map[string]int) error {
	total, wantTotal := 0, 0
	for _, n := range want {
		wantTotal += n
	}
	frags := make(map[string]int)
	sizes := make(map[string]int)
	for _, bl := range blocks {
		perBlock := make(map[string]bool)
		for i := range bl.Keys {
			ks := &bl.Keys[i]
			total += ks.Len()
			sizes[ks.Key] += ks.Len()
			if !perBlock[ks.Key] {
				perBlock[ks.Key] = true
				frags[ks.Key]++
			}
		}
	}
	if total != wantTotal {
		return fmt.Errorf("tuple: partitioned batch has %d tuples, want %d", total, wantTotal)
	}
	for k, n := range want {
		if sizes[k] != n {
			return fmt.Errorf("tuple: key %q has %d tuples across blocks, want %d", k, sizes[k], n)
		}
	}
	for _, bl := range blocks {
		for k, info := range bl.Ref {
			if info.Split != (frags[k] > 1) {
				return fmt.Errorf("tuple: block %d labels key %q split=%v but key has %d fragments",
					bl.ID, k, info.Split, frags[k])
			}
		}
		// Every split key present in a block must be labelled there, or the
		// block's Map task would place its fragment without hashing and the
		// fragments would not meet at one Reduce task.
		for _, ks := range bl.Keys {
			if frags[ks.Key] > 1 {
				if info, ok := bl.Ref[ks.Key]; !ok || !info.Split {
					return fmt.Errorf("tuple: block %d holds fragment of split key %q without a split label",
						bl.ID, ks.Key)
				}
			}
		}
	}
	return nil
}
