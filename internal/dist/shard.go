// Package dist is the distributed runtime of the engine: a Coordinator
// that keeps the whole control plane — Algorithm 1/2 partitioning, task
// scheduling, fault simulation, window state — on its own driver and
// scatters only the pure data-plane folds (per-block Map, per-bucket
// Reduce) to engine Shards over a transport.Transport. Because the folds
// are deterministic functions of their inputs, a coordinator-driven
// engine emits BatchReports and windows bit-identical to the
// single-process engine, for every scheme and worker count — the
// property the golden differential tests pin down.
//
// A key has one identity end to end: its ID in the engine's stream
// dictionary. The coordinator has no dictionary of its own — it mirrors
// the engine's to each shard in deltas piggybacked on task frames — so
// block key runs, clusters, Reduce contributions and results all travel
// as engine IDs, and shards run the engine's own folds (BlockMapOut.Map,
// FoldBucket) on them. The coordinator checks every reply entry against
// the task before anything indexes by its ID (ErrBadReply).
//
// Shards are stateless between exchanges apart from the dictionary mirror
// and their back-pressure controller, so a shard restart costs only a
// dictionary resync (the coordinator replays it from the HelloAck
// watermark) and checkpoint/restore stays a purely coordinator-side
// concern.
package dist

import (
	"fmt"
	"sync"
	"time"

	"prompt/internal/backpressure"
	"prompt/internal/engine"
	"prompt/internal/migrate"
	"prompt/internal/tuple"
	"prompt/internal/wire"
)

// Shard executes the data-plane folds the coordinator scatters to it. It
// implements transport.Handler; serve it over any transport backend. A
// shard must be constructed with the same queries, in the same order, as
// its coordinator — query functions cannot travel over the wire, so the
// Hello handshake verifies the names line up.
type Shard struct {
	index   int
	queries []engine.Query
	names   []string

	mu       sync.Mutex
	mirror   []string         // intern id → key, the engine's dict mirrored
	pos      engine.Positions // FoldBucket's table over the mirror
	interval tuple.Time
	aimd     *backpressure.AIMD
	curBatch int
	busy     time.Duration
	// block, mapped and folded are the Map and Reduce folds' storage,
	// reused block after block: a fold's output is copied into its reply
	// before s.mu is released.
	block  *tuple.Block
	mapped engine.BlockMapOut
	folded engine.Result
	// stripes holds the slot state images migrated to this shard, newest
	// per slot — the recipient half of an elastic handoff. They are a
	// redundancy layer (the coordinator's driver keeps the authoritative
	// window state), so shard restarts simply drop them.
	stripes map[int]*wire.Migrate
}

// NewShard returns a shard runtime holding the given queries.
func NewShard(index int, queries []engine.Query) *Shard {
	s := &Shard{
		index:    index,
		queries:  make([]engine.Query, len(queries)),
		names:    make([]string, len(queries)),
		aimd:     backpressure.NewAIMD(),
		curBatch: -1,
		block:    tuple.NewBlock(0),
	}
	for i, q := range queries {
		s.queries[i] = q.Normalized()
		s.names[i] = q.Name
	}
	return s
}

// Factor returns the shard's current back-pressure admission factor.
func (s *Shard) Factor() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aimd.Factor
}

// Handle implements transport.Handler.
func (s *Shard) Handle(req wire.Msg) (wire.Msg, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m := req.(type) {
	case *wire.Hello:
		return s.handleHello(m)
	case *wire.MapTaskCols:
		return s.handleMap(m)
	case *wire.ReduceTask:
		return s.handleReduce(m)
	case *wire.Migrate:
		return s.handleMigrate(m)
	default:
		return nil, fmt.Errorf("dist: shard %d: unexpected %v frame", s.index, req.WireType())
	}
}

// handleMigrate stores one migrated slot stripe, newest epoch wins, and
// acknowledges with this side's digest of the image so the coordinator
// can verify the bytes arrived intact. The image must decode — a stripe
// that cannot be re-applied later is worse than no stripe.
func (s *Shard) handleMigrate(m *wire.Migrate) (wire.Msg, error) {
	img, err := migrate.Decode(m.Image)
	if err != nil {
		return nil, fmt.Errorf("dist: shard %d: slot %d image: %w", s.index, m.Slot, err)
	}
	if img.Slot != m.Slot {
		return nil, fmt.Errorf("dist: shard %d: frame says slot %d, image says %d", s.index, m.Slot, img.Slot)
	}
	if s.stripes == nil {
		s.stripes = make(map[int]*wire.Migrate)
	}
	if prev, ok := s.stripes[m.Slot]; !ok || m.Batch >= prev.Batch {
		s.stripes[m.Slot] = m
	}
	return &wire.MigrateAck{
		Slot:   m.Slot,
		Digest: migrate.Digest(m.Image),
		Keys:   img.Keys(),
	}, nil
}

// Stripes reports how many slot stripes the shard currently holds.
func (s *Shard) Stripes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stripes)
}

func (s *Shard) handleHello(m *wire.Hello) (wire.Msg, error) {
	if m.Shard != s.index {
		return nil, fmt.Errorf("dist: shard %d addressed as shard %d", s.index, m.Shard)
	}
	if len(m.Queries) != len(s.names) {
		return nil, fmt.Errorf("dist: shard %d holds %d queries, coordinator runs %d",
			s.index, len(s.names), len(m.Queries))
	}
	for i, name := range m.Queries {
		if name != s.names[i] {
			return nil, fmt.Errorf("dist: shard %d query %d is %q, coordinator runs %q",
				s.index, i, s.names[i], name)
		}
	}
	s.interval = m.Interval
	return &wire.HelloAck{
		Shard:    s.index,
		DictSize: uint32(len(s.mirror)),
		Queries:  len(s.queries),
	}, nil
}

// applyDelta extends the dictionary mirror. Overlapping entries (a
// coordinator resend after a failed exchange) are verified, not
// reapplied; a gap means the two sides lost sync and is fatal for the
// exchange.
func (s *Shard) applyDelta(d wire.DictDelta) error {
	if int(d.First) > len(s.mirror) {
		return fmt.Errorf("dist: shard %d dict gap: delta starts at %d, mirror holds %d",
			s.index, d.First, len(s.mirror))
	}
	for i, k := range d.Keys {
		id := int(d.First) + i
		if id < len(s.mirror) {
			if s.mirror[id] != k {
				return fmt.Errorf("dist: shard %d dict conflict at id %d: have %q, delta says %q",
					s.index, id, s.mirror[id], k)
			}
			continue
		}
		s.mirror = append(s.mirror, k)
	}
	return nil
}

// observeBatch rolls the back-pressure controller over a batch boundary:
// when a task frame's batch index advances past the current batch, the
// accumulated busy wall time of the finished batch is judged against the
// interval.
func (s *Shard) observeBatch(batch int) {
	if batch == s.curBatch {
		return
	}
	if s.curBatch >= 0 && s.interval > 0 {
		s.aimd.Observe(s.busy <= s.interval.Duration())
	}
	s.curBatch = batch
	s.busy = 0
}

// task opens a task frame: it extends the mirror by the frame's
// dictionary delta, resolves the frame's query and rolls the
// back-pressure controller over to the frame's batch.
func (s *Shard) task(d wire.DictDelta, batch, qi int) (engine.Query, error) {
	if err := s.applyDelta(d); err != nil {
		return engine.Query{}, err
	}
	if qi < 0 || qi >= len(s.queries) {
		return engine.Query{}, fmt.Errorf("dist: shard %d query index %d out of range [0,%d)",
			s.index, qi, len(s.queries))
	}
	s.observeBatch(batch)
	return s.queries[qi], nil
}

// handleMap runs a Map task frame: block key runs arrive as dense
// columns and feed the Map fold directly — no row materialization on the
// shard. Each block is folded through the shard's one reused block, and
// the frame's clusters share one allocation.
func (s *Shard) handleMap(m *wire.MapTaskCols) (wire.Msg, error) {
	q, err := s.task(m.Dict, m.Batch, m.Query)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()

	runs := 0
	for i := range m.Blocks {
		runs += len(m.Blocks[i].Keys)
	}
	outs := make([]wire.BlockOut, len(m.Blocks))
	all := make([]wire.Cluster, 0, runs) // a block has at most one cluster per run
	for i := range m.Blocks {
		wb := &m.Blocks[i]
		s.block.Reset(wb.ID)
		for k := range wb.Keys {
			ks := &wb.Keys[k]
			if err := s.checkKey(ks.ID); err != nil {
				return nil, err
			}
			s.block.AddDenseCols(s.mirror[ks.ID], ks.ID, ks.Cols, ks.Cols.Weight())
		}
		s.mapped.Map(q, s.block)
		at := len(all)
		for ci, c := range s.mapped.Clusters {
			all = append(all, wire.Cluster{KeyID: c.ID, Size: c.Size, Val: s.mapped.Values[ci]})
		}
		outs[i] = wire.BlockOut{Clusters: all[at:len(all):len(all)]}
	}

	s.busy += time.Since(t0)
	return &wire.MapResult{
		Batch:  m.Batch,
		Query:  m.Query,
		Outs:   outs,
		Factor: s.aimd.Factor,
	}, nil
}

// checkKey rejects a key ID the mirror does not hold.
func (s *Shard) checkKey(id uint32) error {
	if int(id) >= len(s.mirror) {
		return fmt.Errorf("dist: shard %d: key id %d beyond mirror size %d", s.index, id, len(s.mirror))
	}
	return nil
}

// handleReduce runs a Reduce task frame with engine.FoldBucket, the one
// Reduce fold: entries come back in first-seen key order, exactly what a
// local fold of the bucket returns.
func (s *Shard) handleReduce(m *wire.ReduceTask) (wire.Msg, error) {
	q, err := s.task(m.Dict, m.Batch, m.Query)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()

	s.pos.Cover(len(s.mirror))
	contribs := 0
	for i := range m.Buckets {
		for _, c := range m.Buckets[i].Contribs {
			if err := s.checkKey(c.ID); err != nil {
				return nil, err
			}
		}
		contribs += len(m.Buckets[i].Contribs)
	}
	outs := make([]wire.BucketOut, len(m.Buckets))
	all := make([]tuple.Contrib, 0, contribs) // a bucket has at most one entry per contribution
	for i := range m.Buckets {
		bk := &m.Buckets[i]
		s.folded = engine.FoldBucket(q, bk.Contribs, s.pos, s.folded)
		at := len(all)
		for j, id := range s.folded.IDs {
			all = append(all, tuple.Contrib{ID: id, Val: s.folded.Vals[j]})
		}
		outs[i] = wire.BucketOut{Bucket: bk.Bucket, Entries: all[at:len(all):len(all)]}
	}

	s.busy += time.Since(t0)
	return &wire.ReduceResult{
		Batch:  m.Batch,
		Query:  m.Query,
		Outs:   outs,
		Factor: s.aimd.Factor,
	}, nil
}
