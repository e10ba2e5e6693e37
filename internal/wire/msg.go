package wire

import (
	"fmt"

	"prompt/internal/engine"
	"prompt/internal/metrics"
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
	b = appendVarint(b, int64(m.Shard))
	b = appendVarint(b, int64(m.Shards))
	b = appendUvarint(b, uint64(len(m.Queries)))
	for _, q := range m.Queries {
		b = appendString(b, q)
	}
	b = appendVarint(b, int64(m.Interval))
	return b
}

func (m *Hello) decode(r *reader) (err error) {
	if m.Shard, err = r.intv(); err != nil {
		return err
	}
	if m.Shards, err = r.intv(); err != nil {
		return err
	}
	n, err := r.count(1)
	if err != nil {
		return err
	}
	m.Queries = make([]string, n)
	for i := range m.Queries {
		if m.Queries[i], err = r.string(); err != nil {
			return err
		}
	}
	iv, err := r.varint()
	if err != nil {
		return err
	}
	m.Interval = tuple.Time(iv)
	return nil
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
	b = appendVarint(b, int64(m.Shard))
	b = appendUvarint(b, uint64(m.DictSize))
	b = appendVarint(b, int64(m.Queries))
	return b
}

func (m *HelloAck) decode(r *reader) (err error) {
	if m.Shard, err = r.intv(); err != nil {
		return err
	}
	if m.DictSize, err = r.uint32v(); err != nil {
		return err
	}
	m.Queries, err = r.intv()
	return err
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
	b = appendUvarint(b, uint64(m.First))
	b = appendUvarint(b, uint64(len(m.Keys)))
	for _, k := range m.Keys {
		b = appendString(b, k)
	}
	return b
}

func (m *DictDelta) decode(r *reader) (err error) {
	if m.First, err = r.uint32v(); err != nil {
		return err
	}
	n, err := r.count(1)
	if err != nil {
		return err
	}
	m.Keys = make([]string, n)
	for i := range m.Keys {
		if m.Keys[i], err = r.string(); err != nil {
			return err
		}
	}
	return nil
}

// Tuple is a stream tuple with its key replaced by an intern ID.
type Tuple struct {
	TS     tuple.Time
	Val    float64
	Weight int
}

// KeySlice is one key's tuple run inside a block: the interned key, the
// partitioner's dense per-batch number (0 = none), and the tuples.
type KeySlice struct {
	KeyID  uint32
	Dense  int32
	Tuples []Tuple
}

// Block is ColBlock's row form, the payload of the retired MapTask frame.
type Block struct {
	ID   int
	Keys []KeySlice
}

func appendBlock(b []byte, bl *Block) []byte {
	b = appendVarint(b, int64(bl.ID))
	b = appendUvarint(b, uint64(len(bl.Keys)))
	for i := range bl.Keys {
		ks := &bl.Keys[i]
		b = appendUvarint(b, uint64(ks.KeyID))
		b = appendVarint(b, int64(ks.Dense))
		b = appendUvarint(b, uint64(len(ks.Tuples)))
		for j := range ks.Tuples {
			t := &ks.Tuples[j]
			b = appendVarint(b, int64(t.TS))
			b = appendFloat(b, t.Val)
			b = appendUvarint(b, uint64(t.Weight))
		}
	}
	return b
}

func decodeBlock(r *reader, bl *Block) (err error) {
	if bl.ID, err = r.intv(); err != nil {
		return err
	}
	nk, err := r.count(3)
	if err != nil {
		return err
	}
	bl.Keys = make([]KeySlice, nk)
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
		nt, err := r.count(10) // TS(1+) + Val(8) + Weight(1+)
		if err != nil {
			return err
		}
		ks.Tuples = make([]Tuple, nt)
		for j := range ks.Tuples {
			t := &ks.Tuples[j]
			ts, err := r.varint()
			if err != nil {
				return err
			}
			t.TS = tuple.Time(ts)
			if t.Val, err = r.float(); err != nil {
				return err
			}
			if t.Weight, err = r.uintv(); err != nil {
				return err
			}
		}
	}
	return nil
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
	b = appendVarint(b, int64(m.Batch))
	b = appendVarint(b, int64(m.Query))
	b = m.Dict.append(b)
	b = appendUvarint(b, uint64(len(m.Blocks)))
	for i := range m.Blocks {
		b = appendBlock(b, &m.Blocks[i])
	}
	return b
}

func (m *MapTask) decode(r *reader) (err error) {
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
	m.Blocks = make([]Block, n)
	for i := range m.Blocks {
		if err = decodeBlock(r, &m.Blocks[i]); err != nil {
			return err
		}
	}
	return nil
}

// Cluster is one key cluster of a Map task's output with its folded
// partial value: the shuffle currency of the distributed engine.
type Cluster struct {
	KeyID uint32
	Size  int
	Dense int32
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
	b = appendVarint(b, int64(m.Batch))
	b = appendVarint(b, int64(m.Query))
	b = appendUvarint(b, uint64(len(m.Outs)))
	for i := range m.Outs {
		cs := m.Outs[i].Clusters
		b = appendUvarint(b, uint64(len(cs)))
		for j := range cs {
			c := &cs[j]
			b = appendUvarint(b, uint64(c.KeyID))
			b = appendVarint(b, int64(c.Size))
			b = appendVarint(b, int64(c.Dense))
			b = appendFloat(b, c.Val)
		}
	}
	b = appendFloat(b, m.Factor)
	return b
}

func (m *MapResult) decode(r *reader) (err error) {
	if m.Batch, err = r.intv(); err != nil {
		return err
	}
	if m.Query, err = r.intv(); err != nil {
		return err
	}
	n, err := r.count(1)
	if err != nil {
		return err
	}
	m.Outs = make([]BlockOut, n)
	for i := range m.Outs {
		nc, err := r.count(11) // KeyID(1+) + Size(1+) + Dense(1+) + Val(8)
		if err != nil {
			return err
		}
		cs := make([]Cluster, nc)
		for j := range cs {
			c := &cs[j]
			if c.KeyID, err = r.uint32v(); err != nil {
				return err
			}
			if c.Size, err = r.intv(); err != nil {
				return err
			}
			dense, err := r.varint()
			if err != nil {
				return err
			}
			if int64(int32(dense)) != dense {
				return fmt.Errorf("wire: dense id %d overflows int32", dense)
			}
			c.Dense = int32(dense)
			if c.Val, err = r.float(); err != nil {
				return err
			}
		}
		m.Outs[i].Clusters = cs
	}
	m.Factor, err = r.float()
	return err
}

// Contrib is one cluster's contribution to a Reduce bucket.
type Contrib struct {
	KeyID uint32
	Val   float64
}

// Bucket is one Reduce bucket's contribution list in global fold order
// (non-commutative reduce functions depend on it).
type Bucket struct {
	Bucket   int
	Contribs []Contrib
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
	b = appendVarint(b, int64(m.Batch))
	b = appendVarint(b, int64(m.Query))
	b = m.Dict.append(b)
	b = appendUvarint(b, uint64(len(m.Buckets)))
	for i := range m.Buckets {
		bk := &m.Buckets[i]
		b = appendVarint(b, int64(bk.Bucket))
		b = appendUvarint(b, uint64(len(bk.Contribs)))
		for j := range bk.Contribs {
			c := &bk.Contribs[j]
			b = appendUvarint(b, uint64(c.KeyID))
			b = appendFloat(b, c.Val)
		}
	}
	return b
}

func (m *ReduceTask) decode(r *reader) (err error) {
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
	m.Buckets = make([]Bucket, n)
	for i := range m.Buckets {
		bk := &m.Buckets[i]
		if bk.Bucket, err = r.intv(); err != nil {
			return err
		}
		nc, err := r.count(9) // KeyID(1+) + Val(8)
		if err != nil {
			return err
		}
		bk.Contribs = make([]Contrib, nc)
		for j := range bk.Contribs {
			c := &bk.Contribs[j]
			if c.KeyID, err = r.uint32v(); err != nil {
				return err
			}
			if c.Val, err = r.float(); err != nil {
				return err
			}
		}
	}
	return nil
}

// BucketOut is one folded Reduce bucket: its per-key results in first-
// contribution order (the fold's natural map-free order, so results are
// deterministic without sorting).
type BucketOut struct {
	Bucket  int
	Entries []Contrib
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
	b = appendVarint(b, int64(m.Batch))
	b = appendVarint(b, int64(m.Query))
	b = appendUvarint(b, uint64(len(m.Outs)))
	for i := range m.Outs {
		o := &m.Outs[i]
		b = appendVarint(b, int64(o.Bucket))
		b = appendUvarint(b, uint64(len(o.Entries)))
		for j := range o.Entries {
			c := &o.Entries[j]
			b = appendUvarint(b, uint64(c.KeyID))
			b = appendFloat(b, c.Val)
		}
	}
	b = appendFloat(b, m.Factor)
	return b
}

func (m *ReduceResult) decode(r *reader) (err error) {
	if m.Batch, err = r.intv(); err != nil {
		return err
	}
	if m.Query, err = r.intv(); err != nil {
		return err
	}
	n, err := r.count(2)
	if err != nil {
		return err
	}
	m.Outs = make([]BucketOut, n)
	for i := range m.Outs {
		o := &m.Outs[i]
		if o.Bucket, err = r.intv(); err != nil {
			return err
		}
		ne, err := r.count(9)
		if err != nil {
			return err
		}
		o.Entries = make([]Contrib, ne)
		for j := range o.Entries {
			c := &o.Entries[j]
			if c.KeyID, err = r.uint32v(); err != nil {
				return err
			}
			if c.Val, err = r.float(); err != nil {
				return err
			}
		}
	}
	m.Factor, err = r.float()
	return err
}

// Report carries one engine.BatchReport — every field, bit-exact (times
// as varints, floats as IEEE bits) — so a monitoring peer reconstructs
// exactly what the coordinator committed.
type Report struct {
	Report engine.BatchReport
}

// WireType implements Msg.
func (*Report) WireType() Type { return TypeReport }

func (m *Report) append(b []byte) []byte {
	r := &m.Report
	b = appendVarint(b, int64(r.Index))
	b = appendVarint(b, int64(r.Start))
	b = appendVarint(b, int64(r.End))
	b = appendVarint(b, int64(r.Tuples))
	b = appendVarint(b, int64(r.Keys))
	b = appendVarint(b, int64(r.MapTasks))
	b = appendVarint(b, int64(r.ReduceTasks))
	b = appendVarint(b, int64(r.Cores))
	b = appendVarint(b, int64(r.CoresLost))
	b = appendVarint(b, int64(r.TaskRetries))
	b = appendVarint(b, int64(r.RecoveryAttempts))
	b = appendVarint(b, int64(r.RecoveryTime))
	b = appendVarint(b, int64(r.TuplesDropped))
	b = appendFloat(b, r.Quality.BSI)
	b = appendFloat(b, r.Quality.BCI)
	b = appendFloat(b, r.Quality.KSR)
	b = appendFloat(b, r.Quality.MPI)
	b = appendUvarint(b, uint64(len(r.BucketSizes)))
	for _, s := range r.BucketSizes {
		b = appendVarint(b, int64(s))
	}
	b = appendFloat(b, r.BucketBSI)
	b = appendVarint(b, int64(r.PartitionTime))
	b = appendVarint(b, int64(r.PartitionOverflow))
	b = appendVarint(b, int64(r.MapStageTime))
	b = appendVarint(b, int64(r.ReduceStageTime))
	b = appendUvarint(b, uint64(len(r.ReduceTaskTimes)))
	for _, t := range r.ReduceTaskTimes {
		b = appendVarint(b, int64(t))
	}
	b = appendVarint(b, int64(r.ProcessingTime))
	b = appendVarint(b, int64(r.QueueWait))
	b = appendVarint(b, int64(r.Latency))
	b = appendFloat(b, r.W)
	b = appendBool(b, r.Stable)
	return b
}

func (m *Report) decode(rd *reader) error {
	r := &m.Report
	var err error
	readTime := func(dst *tuple.Time) {
		if err != nil {
			return
		}
		var v int64
		if v, err = rd.varint(); err == nil {
			*dst = tuple.Time(v)
		}
	}
	readInt := func(dst *int) {
		if err != nil {
			return
		}
		*dst, err = rd.intv()
	}
	readFloat := func(dst *float64) {
		if err != nil {
			return
		}
		*dst, err = rd.float()
	}
	readInt(&r.Index)
	readTime(&r.Start)
	readTime(&r.End)
	readInt(&r.Tuples)
	readInt(&r.Keys)
	readInt(&r.MapTasks)
	readInt(&r.ReduceTasks)
	readInt(&r.Cores)
	readInt(&r.CoresLost)
	readInt(&r.TaskRetries)
	readInt(&r.RecoveryAttempts)
	readTime(&r.RecoveryTime)
	readInt(&r.TuplesDropped)
	r.Quality = metrics.Report{}
	readFloat(&r.Quality.BSI)
	readFloat(&r.Quality.BCI)
	readFloat(&r.Quality.KSR)
	readFloat(&r.Quality.MPI)
	if err != nil {
		return err
	}
	n, err := rd.count(1)
	if err != nil {
		return err
	}
	if n > 0 {
		r.BucketSizes = make([]int, n)
		for i := range r.BucketSizes {
			readInt(&r.BucketSizes[i])
		}
	} else {
		r.BucketSizes = nil
	}
	readFloat(&r.BucketBSI)
	readTime(&r.PartitionTime)
	readTime(&r.PartitionOverflow)
	readTime(&r.MapStageTime)
	readTime(&r.ReduceStageTime)
	if err != nil {
		return err
	}
	n, err = rd.count(1)
	if err != nil {
		return err
	}
	if n > 0 {
		r.ReduceTaskTimes = make([]tuple.Time, n)
		for i := range r.ReduceTaskTimes {
			readTime(&r.ReduceTaskTimes[i])
		}
	} else {
		r.ReduceTaskTimes = nil
	}
	readTime(&r.ProcessingTime)
	readTime(&r.QueueWait)
	readTime(&r.Latency)
	readFloat(&r.W)
	if err != nil {
		return err
	}
	r.Stable, err = rd.bool()
	return err
}

// Error reports a shard-side failure for the exchange in flight. The
// coordinator surfaces it as a transport error and falls back to local
// recomputation for that shard's work.
type Error struct {
	Msg string
}

// WireType implements Msg.
func (*Error) WireType() Type { return TypeError }

func (m *Error) append(b []byte) []byte { return appendString(b, m.Msg) }

func (m *Error) decode(r *reader) (err error) {
	m.Msg, err = r.string()
	return err
}

// Error implements error so a decoded Error frame can propagate directly.
func (m *Error) Error() string { return "wire: shard error: " + m.Msg }
