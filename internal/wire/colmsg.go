package wire

import (
	"prompt/internal/codec"
	"prompt/internal/tuple"
)

// ColKeySlice is one key's tuple run inside a columnar block: the key's
// ID in the engine's dictionary (which the shard mirrors) and the
// struct-of-arrays columns. On the wire the timestamp column is
// delta-encoded (first value absolute, then zigzag-varint gaps — batch
// timestamps are near-sorted and tightly clustered, so gaps compress far
// better than absolute values), values travel as IEEE bits, and weights
// as uvarints.
type ColKeySlice struct {
	KeyID uint32
	Cols  tuple.ColSlice
}

// ColBlock is a data block in transit: the Map-task input. The reference
// table does not travel — bucket assignment is a coordinator concern — so
// a block is its ID and its key runs, each in the dense column layout the
// engine holds it in — no row materialization on either side of the
// wire.
type ColBlock struct {
	ID   int
	Keys []ColKeySlice
}

func appendColBlock(b []byte, bl *ColBlock) []byte {
	b = codec.AppendVarint(b, int64(bl.ID))
	b = codec.AppendUvarint(b, uint64(len(bl.Keys)))
	for i := range bl.Keys {
		ks := &bl.Keys[i]
		b = codec.AppendUvarint(b, uint64(ks.KeyID))
		b = codec.AppendUvarint(b, uint64(ks.Cols.Len()))
		prev := tuple.Time(0)
		for _, ts := range ks.Cols.TS {
			b = codec.AppendVarint(b, int64(ts-prev))
			prev = ts
		}
		for _, v := range ks.Cols.Vals {
			b = codec.AppendFloat(b, v)
		}
		for _, w := range ks.Cols.W {
			b = codec.AppendUvarint(b, uint64(uint32(w)))
		}
	}
	return b
}

func decodeColBlock(r *codec.Reader, bl *ColBlock, a *colArena) {
	bl.ID = r.Int()
	bl.Keys = make([]ColKeySlice, r.Count(2))
	for i := range bl.Keys {
		ks := &bl.Keys[i]
		ks.KeyID = r.Uint32()
		cols := a.take(r.Count(10)) // TS delta(1+) + Val(8) + W(1+)
		prev := tuple.Time(0)
		for j := range cols.TS {
			prev += tuple.Time(r.Varint())
			cols.TS[j] = prev
		}
		for j := range cols.Vals {
			cols.Vals[j] = r.Float()
		}
		for j := range cols.W {
			cols.W[j] = int32(r.Uint32())
		}
		ks.Cols = cols
	}
}

// colArena hands out the key runs of one frame as capacity-capped views
// of one allocation per column, so a frame decodes in three column
// allocations instead of three per key run.
type colArena struct {
	ts   []tuple.Time
	vals []float64
	w    []int32
}

// newColArena holds n rows; a frame's remaining bytes over the 10-byte
// minimum row bound the rows it can still carry.
func newColArena(n int) colArena {
	return colArena{ts: make([]tuple.Time, n), vals: make([]float64, n), w: make([]int32, n)}
}

// take cuts the next n rows off the arena.
func (a *colArena) take(n int) tuple.ColSlice {
	if n > len(a.ts) {
		*a = newColArena(n)
	}
	c := tuple.ColSlice{TS: a.ts[:n:n], Vals: a.vals[:n:n], W: a.w[:n:n]}
	a.ts, a.vals, a.w = a.ts[n:], a.vals[n:], a.w[n:]
	return c
}

// MapTaskCols carries one batch-query-stage's worth of Map work for one
// shard: every block routed to it, in global block order, prefixed by the
// dictionary delta its IDs need. Batching the whole stage into a single
// frame keeps the protocol strict request-reply — one send, one receive
// per shard per stage — which synchronous in-memory pipes require. The
// shard answers with a MapResult.
type MapTaskCols struct {
	Batch int
	Query int
	Dict  DictDelta
	// Blocks are the shard's Map inputs (a subset of the batch's blocks).
	Blocks []ColBlock
}

// WireType implements Msg.
func (*MapTaskCols) WireType() Type { return TypeMapTaskCols }

func (m *MapTaskCols) append(b []byte) []byte {
	b = codec.AppendVarint(b, int64(m.Batch))
	b = codec.AppendVarint(b, int64(m.Query))
	b = m.Dict.append(b)
	b = codec.AppendUvarint(b, uint64(len(m.Blocks)))
	for i := range m.Blocks {
		b = appendColBlock(b, &m.Blocks[i])
	}
	return b
}

func (m *MapTaskCols) decode(r *codec.Reader) {
	m.Batch = r.Int()
	m.Query = r.Int()
	m.Dict.decode(r)
	m.Blocks = make([]ColBlock, r.Count(2))
	arena := newColArena(r.Remaining() / 10)
	for i := range m.Blocks {
		decodeColBlock(r, &m.Blocks[i], &arena)
	}
}
