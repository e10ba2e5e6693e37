package tuple

import (
	"errors"
	"fmt"
	"sync"
)

// ColumnBatch is the struct-of-arrays form of a micro-batch: one dense
// slice per field, with keys replaced by intern IDs. Row i of the batch
// is (IDs[i], TS[i], Vals[i], W[i]). It is the engine's only batch
// representation: caller rows are transposed into it once, at the edge,
// and the statistics, partitioning, and Map layers all read its columns.
// Frequency counting walks the contiguous ID column instead of hashing a
// string per record, and the 24 bytes per row (vs 48 for a Tuple with
// its string header) keep more of the batch in cache.
//
// IDs are only meaningful against the dictionary that interned them —
// normally the owning engine's — so a ColumnBatch never travels between
// engines without re-interning.
type ColumnBatch struct {
	// Interval bounds: rows with Start <= TS[i] < End belong to the batch.
	Start, End Time

	IDs  []uint32
	TS   []Time
	Vals []float64
	W    []int32
}

// ErrWeightOverflow reports a tuple whose weight does not fit the int32
// weight column. The transpose rejects such a batch whole instead of
// narrowing the weight.
var ErrWeightOverflow = errors.New("tuple: weight does not fit the int32 weight column")

// CheckWeight returns an error wrapping ErrWeightOverflow when w does not
// fit the weight column.
func CheckWeight(w int) error {
	if int(int32(w)) != w {
		return fmt.Errorf("%w: weight %d", ErrWeightOverflow, w)
	}
	return nil
}

// Len returns the number of rows.
func (cb *ColumnBatch) Len() int { return len(cb.IDs) }

// Reset empties the batch, keeping the column capacity for reuse.
func (cb *ColumnBatch) Reset() {
	cb.Start, cb.End = 0, 0
	cb.IDs = cb.IDs[:0]
	cb.TS = cb.TS[:0]
	cb.Vals = cb.Vals[:0]
	cb.W = cb.W[:0]
}

// Grow ensures capacity for n additional rows.
func (cb *ColumnBatch) Grow(n int) {
	if need := len(cb.IDs) + n; need > cap(cb.IDs) {
		ids := make([]uint32, len(cb.IDs), need)
		copy(ids, cb.IDs)
		cb.IDs = ids
		ts := make([]Time, len(cb.TS), need)
		copy(ts, cb.TS)
		cb.TS = ts
		vals := make([]float64, len(cb.Vals), need)
		copy(vals, cb.Vals)
		cb.Vals = vals
		w := make([]int32, len(cb.W), need)
		copy(w, cb.W)
		cb.W = w
	}
}

// Append adds one row.
func (cb *ColumnBatch) Append(id uint32, ts Time, val float64, w int32) {
	cb.IDs = append(cb.IDs, id)
	cb.TS = append(cb.TS, ts)
	cb.Vals = append(cb.Vals, val)
	cb.W = append(cb.W, w)
}

// Interner assigns dictionary IDs to a whole batch of keys at once:
// InternBatch sets ids[i] to the ID of key(i), issuing new IDs in index
// order. *intern.Dict implements it, taking its lock once per batch.
type Interner interface {
	InternBatch(ids []uint32, key func(i int) string)
}

// Transpose converts row tuples into columns, appending them to the
// batch: the value columns in one pass over the rows, then every key
// interned through in (typically the owning engine's dictionary) in one
// call, in arrival order, so ID order is a function of the input alone.
// Row order is preserved. If any weight does not fit the weight column it
// returns an error wrapping ErrWeightOverflow before interning anything,
// leaving the batch as it was.
func (cb *ColumnBatch) Transpose(rows []Tuple, in Interner) error {
	n := len(cb.IDs)
	cb.Grow(len(rows))
	for i := range rows {
		t := &rows[i]
		if int(int32(t.Weight)) != t.Weight {
			cb.TS, cb.Vals, cb.W = cb.TS[:n], cb.Vals[:n], cb.W[:n]
			return fmt.Errorf("row %d: %w", i, CheckWeight(t.Weight))
		}
		cb.TS = append(cb.TS, t.TS)
		cb.Vals = append(cb.Vals, t.Val)
		cb.W = append(cb.W, int32(t.Weight))
	}
	cb.IDs = cb.IDs[:n+len(rows)]
	in.InternBatch(cb.IDs[n:], func(i int) string { return rows[i].Key })
	return nil
}

// AppendRows is Transpose with a per-key intern function, called once per
// row.
//
// Deprecated: it takes a lock per row through a dictionary's Intern; use
// Transpose with the dictionary itself. It stays only for the benchmark
// module's layer probe (bench/layers), which still passes Dict.Intern.
func (cb *ColumnBatch) AppendRows(rows []Tuple, intern func(string) uint32) error {
	return cb.Transpose(rows, perKey(intern))
}

// perKey adapts a per-key intern function to Interner.
type perKey func(string) uint32

func (f perKey) InternBatch(ids []uint32, key func(i int) string) {
	for i := range ids {
		ids[i] = f(key(i))
	}
}

// Clone returns a deep copy of the batch.
func (cb *ColumnBatch) Clone() *ColumnBatch {
	return &ColumnBatch{
		Start: cb.Start,
		End:   cb.End,
		IDs:   append([]uint32(nil), cb.IDs...),
		TS:    append([]Time(nil), cb.TS...),
		Vals:  append([]float64(nil), cb.Vals...),
		W:     append([]int32(nil), cb.W...),
	}
}

// KeyCounts returns every key's row count. It counts per ID and resolves
// each distinct ID once.
func (cb *ColumnBatch) KeyCounts(resolve func(uint32) string) map[string]int {
	perID := make(map[uint32]int)
	for _, id := range cb.IDs {
		perID[id]++
	}
	out := make(map[string]int, len(perID))
	for id, n := range perID {
		out[resolve(id)] = n
	}
	return out
}

var columnBatchPool = sync.Pool{New: func() any { return new(ColumnBatch) }}

// GetColumnBatch returns an empty ColumnBatch from the pool.
func GetColumnBatch() *ColumnBatch {
	return columnBatchPool.Get().(*ColumnBatch)
}

// PutColumnBatch resets cb and returns it to the pool. The caller must not
// retain references to the columns afterwards.
func PutColumnBatch(cb *ColumnBatch) {
	cb.Reset()
	columnBatchPool.Put(cb)
}

// ColSlice is a columnar view of the tuples of one key (or one fragment
// of a split key): parallel timestamp, value, and weight columns. The key
// itself lives on the enclosing KeySlice or accumulator entry, and the
// intern ID column is unnecessary — every row shares the key.
//
// A ColSlice is a value: slicing and appending follow the usual Go slice
// aliasing rules, applied to all three columns in lockstep.
type ColSlice struct {
	TS   []Time
	Vals []float64
	W    []int32
}

// Len returns the number of rows.
func (c ColSlice) Len() int { return len(c.TS) }

// Weight sums the weight column.
func (c ColSlice) Weight() int {
	w := 0
	for _, x := range c.W {
		w += int(x)
	}
	return w
}

// Slice returns rows [i, j), sharing the backing arrays.
func (c ColSlice) Slice(i, j int) ColSlice {
	return ColSlice{TS: c.TS[i:j], Vals: c.Vals[i:j], W: c.W[i:j]}
}

// Reset returns the zero-length view of the same backing arrays.
func (c ColSlice) Reset() ColSlice {
	return ColSlice{TS: c.TS[:0], Vals: c.Vals[:0], W: c.W[:0]}
}

// Append adds one row, returning the extended slice.
func (c ColSlice) Append(ts Time, val float64, w int32) ColSlice {
	return ColSlice{
		TS:   append(c.TS, ts),
		Vals: append(c.Vals, val),
		W:    append(c.W, w),
	}
}

// AppendCols concatenates o onto c, returning the extended slice.
func (c ColSlice) AppendCols(o ColSlice) ColSlice {
	return ColSlice{
		TS:   append(c.TS, o.TS...),
		Vals: append(c.Vals, o.Vals...),
		W:    append(c.W, o.W...),
	}
}

// Tuple materializes row i as a Tuple with the given key (the Map
// function's argument).
func (c ColSlice) Tuple(key string, i int) Tuple {
	return Tuple{TS: c.TS[i], Key: key, Val: c.Vals[i], Weight: int(c.W[i])}
}
