package wire

import (
	"fmt"
	"math"

	"prompt/internal/tuple"
)

// ColKeySlice is one key's tuple run inside a columnar block: the
// interned key, the partitioner's dense per-batch number (0 = none), and
// the struct-of-arrays columns. On the wire the timestamp column is
// delta-encoded (first value absolute, then zigzag-varint gaps — batch
// timestamps are near-sorted and tightly clustered, so gaps compress far
// better than absolute values), values travel as IEEE bits, and weights
// as uvarints.
type ColKeySlice struct {
	KeyID uint32
	Dense int32
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
	b = appendVarint(b, int64(bl.ID))
	b = appendUvarint(b, uint64(len(bl.Keys)))
	for i := range bl.Keys {
		ks := &bl.Keys[i]
		b = appendUvarint(b, uint64(ks.KeyID))
		b = appendVarint(b, int64(ks.Dense))
		b = appendUvarint(b, uint64(ks.Cols.Len()))
		prev := tuple.Time(0)
		for _, ts := range ks.Cols.TS {
			b = appendVarint(b, int64(ts-prev))
			prev = ts
		}
		for _, v := range ks.Cols.Vals {
			b = appendFloat(b, v)
		}
		for _, w := range ks.Cols.W {
			b = appendUvarint(b, uint64(uint32(w)))
		}
	}
	return b
}

func decodeColBlock(r *reader, bl *ColBlock) (err error) {
	if bl.ID, err = r.intv(); err != nil {
		return err
	}
	nk, err := r.count(3)
	if err != nil {
		return err
	}
	bl.Keys = make([]ColKeySlice, nk)
	for i := range bl.Keys {
		ks := &bl.Keys[i]
		if ks.KeyID, err = r.uint32v(); err != nil {
			return err
		}
		dense, err := r.varint()
		if err != nil {
			return err
		}
		if int64(int32(dense)) != dense {
			return fmt.Errorf("wire: dense id %d overflows int32", dense)
		}
		ks.Dense = int32(dense)
		n, err := r.count(10) // TS delta(1+) + Val(8) + W(1+)
		if err != nil {
			return err
		}
		cols := tuple.ColSlice{
			TS:   make([]tuple.Time, n),
			Vals: make([]float64, n),
			W:    make([]int32, n),
		}
		prev := tuple.Time(0)
		for j := range cols.TS {
			d, err := r.varint()
			if err != nil {
				return err
			}
			prev += tuple.Time(d)
			cols.TS[j] = prev
		}
		for j := range cols.Vals {
			if cols.Vals[j], err = r.float(); err != nil {
				return err
			}
		}
		for j := range cols.W {
			w, err := r.uvarint()
			if err != nil {
				return err
			}
			if w > math.MaxUint32 {
				return fmt.Errorf("wire: weight %d overflows uint32", w)
			}
			cols.W[j] = int32(uint32(w))
		}
		ks.Cols = cols
	}
	return nil
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
	b = appendVarint(b, int64(m.Batch))
	b = appendVarint(b, int64(m.Query))
	b = m.Dict.append(b)
	b = appendUvarint(b, uint64(len(m.Blocks)))
	for i := range m.Blocks {
		b = appendColBlock(b, &m.Blocks[i])
	}
	return b
}

func (m *MapTaskCols) decode(r *reader) (err error) {
	if m.Batch, err = r.intv(); err != nil {
		return err
	}
	if m.Query, err = r.intv(); err != nil {
		return err
	}
	if err = m.Dict.decode(r); err != nil {
		return err
	}
	n, err := r.count(2)
	if err != nil {
		return err
	}
	m.Blocks = make([]ColBlock, n)
	for i := range m.Blocks {
		if err = decodeColBlock(r, &m.Blocks[i]); err != nil {
			return err
		}
	}
	return nil
}
