package wire

import (
	"prompt/internal/codec"
	"prompt/internal/tuple"
)

// ColBlock is a data block in transit: the Map-task input. The reference
// table does not travel — bucket assignment is a coordinator concern — so
// a block is its ID and its key runs, each the engine's own tuple.KeySlice:
// the key's ID in the engine's dictionary (which the shard mirrors) and
// the struct-of-arrays columns, so the coordinator sends a block's runs
// as it holds them and neither side materializes rows. The key string
// does not travel: a decoded run's Key is empty, and the shard resolves
// the ID in its mirror.
//
// On the wire the timestamp column is delta-encoded (first value
// absolute, then zigzag-varint gaps — batch timestamps are near-sorted
// and tightly clustered, so gaps compress far better than absolute
// values), values travel as IEEE bits, and weights as uvarints.
type ColBlock struct {
	ID   int
	Keys []tuple.KeySlice
}

func appendColBlock(b []byte, bl *ColBlock) []byte {
	b = codec.AppendVarint(b, int64(bl.ID))
	b = codec.AppendUvarint(b, uint64(len(bl.Keys)))
	for i := range bl.Keys {
		ks := &bl.Keys[i]
		b = codec.AppendUvarint(b, uint64(ks.ID))
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

// decodeColBlock decodes one block into bl, reusing its key list.
func decodeColBlock(r *codec.Reader, bl *ColBlock, a *colArena) {
	bl.ID = r.Int()
	bl.Keys = reuse(bl.Keys, r.Count(2))
	for i := range bl.Keys {
		id := r.Uint32()
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
		bl.Keys[i] = tuple.KeySlice{ID: id, Cols: cols}
	}
}

// reuse returns s resized to n elements, keeping its storage when it
// holds n; what the kept elements held is the caller's to overwrite. A
// fresh slice is never nil, so a decoded empty list reads back as the
// empty list it was.
func reuse[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// colArena hands out the key runs of a frame as capacity-capped views of
// one allocation per column, so a frame decodes in three column
// allocations instead of three per key run, and a decoder that keeps its
// arena decodes the next frame in none.
type colArena struct {
	all  tuple.ColSlice // the whole storage
	free tuple.ColSlice // its untaken tail
}

// reset takes the arena back and sizes it for n rows; a frame's remaining
// bytes over the 10-byte minimum row bound the rows it can still carry.
func (a *colArena) reset(n int) {
	if a.all.TS == nil || a.all.Len() < n {
		a.all = tuple.ColSlice{TS: make([]tuple.Time, n), Vals: make([]float64, n), W: make([]int32, n)}
	}
	a.free = a.all
}

// take cuts the next n rows off the arena.
func (a *colArena) take(n int) tuple.ColSlice {
	if n > a.free.Len() {
		a.free = tuple.ColSlice{TS: make([]tuple.Time, n), Vals: make([]float64, n), W: make([]int32, n)}
	}
	f := a.free
	a.free = f.Slice(n, f.Len())
	return tuple.ColSlice{TS: f.TS[:n:n], Vals: f.Vals[:n:n], W: f.W[:n:n]}
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

func (m *MapTaskCols) decode(r *codec.Reader) { m.decodeInto(r, &colArena{}) }

// decodeInto decodes into m's block and key lists and a's columns,
// reusing what they hold from an earlier frame.
func (m *MapTaskCols) decodeInto(r *codec.Reader, a *colArena) {
	m.Batch = r.Int()
	m.Query = r.Int()
	m.Dict.decode(r)
	m.Blocks = reuse(m.Blocks, r.Count(2))
	a.reset(r.Remaining() / 10)
	for i := range m.Blocks {
		decodeColBlock(r, &m.Blocks[i], a)
	}
}
