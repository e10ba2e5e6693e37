package wire

import (
	"prompt/internal/codec"
	"prompt/internal/tuple"
)

// Hello opens a coordinator→shard connection: the shard's position in the
// topology and the query names the coordinator runs, so a misconfigured
// shard fails the handshake instead of folding with the wrong functions.
type Hello struct {
	// Shard and Shards place this connection in the topology.
	Shard  int
	Shards int
	// Queries names the coordinator's queries in job order; the shard
	// must have been constructed with the same list.
	Queries []string
	// Interval is the coordinator's batch interval; the shard's
	// back-pressure controller judges per-batch busy time against it.
	Interval tuple.Time
}

// WireType implements Msg.
func (*Hello) WireType() Type { return TypeHello }

func (m *Hello) append(b []byte) []byte {
	b = codec.AppendVarint(b, int64(m.Shard))
	b = codec.AppendVarint(b, int64(m.Shards))
	b = codec.AppendUvarint(b, uint64(len(m.Queries)))
	for _, q := range m.Queries {
		b = codec.AppendString(b, q)
	}
	b = codec.AppendVarint(b, int64(m.Interval))
	return b
}

func (m *Hello) decode(r *codec.Reader) {
	m.Shard = r.Int()
	m.Shards = r.Int()
	m.Queries = make([]string, r.Count(1))
	for i := range m.Queries {
		m.Queries[i] = r.Str()
	}
	m.Interval = tuple.Time(r.Varint())
}

// HelloAck completes the handshake. DictSize is how many intern-dictionary
// entries the shard already mirrors — zero on a fresh shard, nonzero after
// a coordinator reconnect — telling the coordinator where its next
// DictDelta must start.
type HelloAck struct {
	Shard    int
	DictSize uint32
	// Queries is the number of queries the shard holds (sanity echo).
	Queries int
}

// WireType implements Msg.
func (*HelloAck) WireType() Type { return TypeHelloAck }

func (m *HelloAck) append(b []byte) []byte {
	b = codec.AppendVarint(b, int64(m.Shard))
	b = codec.AppendUvarint(b, uint64(m.DictSize))
	b = codec.AppendVarint(b, int64(m.Queries))
	return b
}

func (m *HelloAck) decode(r *codec.Reader) {
	m.Shard = r.Int()
	m.DictSize = r.Uint32()
	m.Queries = r.Int()
}

// DictDelta extends the receiver's mirror of the coordinator's intern
// dictionary: Keys[i] interns to ID First+i. Task frames piggyback the
// delta covering every ID they reference, so key strings cross each
// connection at most once and all later references are uint32 IDs.
type DictDelta struct {
	First uint32
	Keys  []string
}

func (m *DictDelta) append(b []byte) []byte {
	b = codec.AppendUvarint(b, uint64(m.First))
	b = codec.AppendUvarint(b, uint64(len(m.Keys)))
	for _, k := range m.Keys {
		b = codec.AppendString(b, k)
	}
	return b
}

func (m *DictDelta) decode(r *codec.Reader) {
	m.First = r.Uint32()
	m.Keys = reuse(m.Keys, r.Count(1))
	for i := range m.Keys {
		m.Keys[i] = r.Str()
	}
}

// Tuple is a stream tuple with its key replaced by an intern ID.
type Tuple struct {
	TS     tuple.Time
	Val    float64
	Weight int
}

// KeySlice is one key's tuple run inside a block: the interned key and
// the tuples.
type KeySlice struct {
	KeyID  uint32
	Tuples []Tuple
}

// Block is ColBlock's row form, the payload of the retired MapTask frame.
type Block struct {
	ID   int
	Keys []KeySlice
}

func appendBlock(b []byte, bl *Block) []byte {
	b = codec.AppendVarint(b, int64(bl.ID))
	b = codec.AppendUvarint(b, uint64(len(bl.Keys)))
	for i := range bl.Keys {
		ks := &bl.Keys[i]
		b = codec.AppendUvarint(b, uint64(ks.KeyID))
		b = codec.AppendUvarint(b, uint64(len(ks.Tuples)))
		for j := range ks.Tuples {
			t := &ks.Tuples[j]
			b = codec.AppendVarint(b, int64(t.TS))
			b = codec.AppendFloat(b, t.Val)
			b = codec.AppendUvarint(b, uint64(t.Weight))
		}
	}
	return b
}

func decodeBlock(r *codec.Reader, bl *Block) {
	bl.ID = r.Int()
	bl.Keys = make([]KeySlice, r.Count(2))
	for i := range bl.Keys {
		ks := &bl.Keys[i]
		ks.KeyID = r.Uint32()
		ks.Tuples = make([]Tuple, r.Count(10)) // TS(1+) + Val(8) + Weight(1+)
		for j := range ks.Tuples {
			t := &ks.Tuples[j]
			t.TS = tuple.Time(r.Varint())
			t.Val = r.Float()
			t.Weight = r.Uint()
		}
	}
}

// MapTask is the row form of MapTaskCols: the same Map work with every
// key run as a list of row tuples. Nothing sends it any more — the
// coordinator sends MapTaskCols and shards reject this frame — and the
// type and its codec stay only because bench/layers/tap.go still
// type-switches on it; they go once that tap is retargeted.
type MapTask struct {
	Batch int
	Query int
	Dict  DictDelta
	// Blocks are the shard's Map inputs (a subset of the batch's blocks).
	Blocks []Block
}

// WireType implements Msg.
func (*MapTask) WireType() Type { return TypeMapTask }

func (m *MapTask) append(b []byte) []byte {
	b = codec.AppendVarint(b, int64(m.Batch))
	b = codec.AppendVarint(b, int64(m.Query))
	b = m.Dict.append(b)
	b = codec.AppendUvarint(b, uint64(len(m.Blocks)))
	for i := range m.Blocks {
		b = appendBlock(b, &m.Blocks[i])
	}
	return b
}

func (m *MapTask) decode(r *codec.Reader) {
	m.Batch = r.Int()
	m.Query = r.Int()
	m.Dict.decode(r)
	m.Blocks = make([]Block, r.Count(2))
	for i := range m.Blocks {
		decodeBlock(r, &m.Blocks[i])
	}
}

// Cluster is one key cluster of a Map task's output with its folded
// partial value: the shuffle currency of the distributed engine.
type Cluster struct {
	KeyID uint32
	Size  int
	Val   float64
}

// BlockOut is the Map outcome for one block, clusters in fold order.
type BlockOut struct {
	Clusters []Cluster
}

// MapResult answers a MapTask: one BlockOut per task block, index-
// aligned, plus the shard's current backpressure factor (piggybacked on
// every reply so the coordinator's view is at most one exchange stale).
type MapResult struct {
	Batch int
	Query int
	Outs  []BlockOut
	// Factor is the shard's AIMD admission factor in (0, 1].
	Factor float64
}

// WireType implements Msg.
func (*MapResult) WireType() Type { return TypeMapResult }

func (m *MapResult) append(b []byte) []byte {
	b = codec.AppendVarint(b, int64(m.Batch))
	b = codec.AppendVarint(b, int64(m.Query))
	b = codec.AppendUvarint(b, uint64(len(m.Outs)))
	for i := range m.Outs {
		cs := m.Outs[i].Clusters
		b = codec.AppendUvarint(b, uint64(len(cs)))
		for j := range cs {
			c := &cs[j]
			b = codec.AppendUvarint(b, uint64(c.KeyID))
			b = codec.AppendVarint(b, int64(c.Size))
			b = codec.AppendFloat(b, c.Val)
		}
	}
	b = codec.AppendFloat(b, m.Factor)
	return b
}

func (m *MapResult) decode(r *codec.Reader) {
	m.Batch = r.Int()
	m.Query = r.Int()
	m.Outs = make([]BlockOut, r.Count(1))
	for i := range m.Outs {
		cs := make([]Cluster, r.Count(10)) // KeyID(1+) + Size(1+) + Val(8)
		for j := range cs {
			c := &cs[j]
			c.KeyID = r.Uint32()
			c.Size = r.Int()
			c.Val = r.Float()
		}
		m.Outs[i].Clusters = cs
	}
	m.Factor = r.Float()
}

// Bucket is one Reduce bucket's contribution list in global fold order
// (non-commutative reduce functions depend on it).
type Bucket struct {
	Bucket   int
	Contribs []tuple.Contrib
}

// ReduceTask carries one shard's Reduce work for a batch-query stage:
// every bucket it owns, contributions pre-ordered by the coordinator.
type ReduceTask struct {
	Batch   int
	Query   int
	Dict    DictDelta
	Buckets []Bucket
}

// WireType implements Msg.
func (*ReduceTask) WireType() Type { return TypeReduceTask }

func (m *ReduceTask) append(b []byte) []byte {
	b = codec.AppendVarint(b, int64(m.Batch))
	b = codec.AppendVarint(b, int64(m.Query))
	b = m.Dict.append(b)
	b = codec.AppendUvarint(b, uint64(len(m.Buckets)))
	for i := range m.Buckets {
		bk := &m.Buckets[i]
		b = codec.AppendVarint(b, int64(bk.Bucket))
		b = appendContribs(b, bk.Contribs)
	}
	return b
}

func (m *ReduceTask) decode(r *codec.Reader) {
	m.Batch = r.Int()
	m.Query = r.Int()
	m.Dict.decode(r)
	m.Buckets = reuse(m.Buckets, r.Count(2))
	for i := range m.Buckets {
		bk := &m.Buckets[i]
		bk.Bucket = r.Int()
		bk.Contribs = decodeContribs(r, bk.Contribs)
	}
}

// appendContribs writes an (ID, Val) list; decodeContribs reads one.
func appendContribs(b []byte, cs []tuple.Contrib) []byte {
	b = codec.AppendUvarint(b, uint64(len(cs)))
	for j := range cs {
		b = codec.AppendUvarint(b, uint64(cs[j].ID))
		b = codec.AppendFloat(b, cs[j].Val)
	}
	return b
}

// decodeContribs reuses cs's storage.
func decodeContribs(r *codec.Reader, cs []tuple.Contrib) []tuple.Contrib {
	cs = reuse(cs, r.Count(9)) // ID(1+) + Val(8)
	for j := range cs {
		cs[j].ID = r.Uint32()
		cs[j].Val = r.Float()
	}
	return cs
}

// BucketOut is one folded Reduce bucket: its per-key results in first-
// contribution order (the fold's natural map-free order, so results are
// deterministic without sorting).
type BucketOut struct {
	Bucket  int
	Entries []tuple.Contrib
}

// ReduceResult answers a ReduceTask, one BucketOut per task bucket,
// index-aligned, with the shard's backpressure factor piggybacked.
type ReduceResult struct {
	Batch int
	Query int
	Outs  []BucketOut
	// Factor is the shard's AIMD admission factor in (0, 1].
	Factor float64
}

// WireType implements Msg.
func (*ReduceResult) WireType() Type { return TypeReduceResult }

func (m *ReduceResult) append(b []byte) []byte {
	b = codec.AppendVarint(b, int64(m.Batch))
	b = codec.AppendVarint(b, int64(m.Query))
	b = codec.AppendUvarint(b, uint64(len(m.Outs)))
	for i := range m.Outs {
		o := &m.Outs[i]
		b = codec.AppendVarint(b, int64(o.Bucket))
		b = appendContribs(b, o.Entries)
	}
	b = codec.AppendFloat(b, m.Factor)
	return b
}

func (m *ReduceResult) decode(r *codec.Reader) {
	m.Batch = r.Int()
	m.Query = r.Int()
	m.Outs = make([]BucketOut, r.Count(2))
	for i := range m.Outs {
		o := &m.Outs[i]
		o.Bucket = r.Int()
		o.Entries = decodeContribs(r, nil)
	}
	m.Factor = r.Float()
}

// Error reports a shard-side failure for the exchange in flight. The
// coordinator surfaces it as a transport error and falls back to local
// recomputation for that shard's work.
type Error struct {
	Msg string
}

// WireType implements Msg.
func (*Error) WireType() Type { return TypeError }

func (m *Error) append(b []byte) []byte { return codec.AppendString(b, m.Msg) }

func (m *Error) decode(r *codec.Reader) { m.Msg = r.Str() }

// Error implements error so a decoded Error frame can propagate directly.
func (m *Error) Error() string { return "wire: shard error: " + m.Msg }
