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
// Shards are stateless between exchanges apart from a mirror of the
// coordinator's intern dictionary and their back-pressure controller, so
// a shard restart costs only a dictionary resync (the coordinator
// replays it from the HelloAck watermark) and checkpoint/restore stays a
// purely coordinator-side concern.
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
	mirror   []string          // intern id → key, coordinator's dict mirrored
	ids      map[string]uint32 // key → intern id (reverse of mirror)
	interval tuple.Time
	aimd     *backpressure.AIMD
	curBatch int
	busy     time.Duration
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
		ids:      make(map[string]uint32),
		aimd:     backpressure.NewAIMD(),
		curBatch: -1,
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
		s.ids[k] = uint32(id)
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

func (s *Shard) query(qi int) (engine.Query, error) {
	if qi < 0 || qi >= len(s.queries) {
		return engine.Query{}, fmt.Errorf("dist: shard %d query index %d out of range [0,%d)",
			s.index, qi, len(s.queries))
	}
	return s.queries[qi], nil
}

// handleMap runs a Map task frame: block key runs arrive as dense
// columns and feed the Map fold directly — no row materialization on the
// shard.
func (s *Shard) handleMap(m *wire.MapTaskCols) (wire.Msg, error) {
	if err := s.applyDelta(m.Dict); err != nil {
		return nil, err
	}
	q, err := s.query(m.Query)
	if err != nil {
		return nil, err
	}
	s.observeBatch(m.Batch)
	t0 := time.Now()

	outs := make([]wire.BlockOut, len(m.Blocks))
	for i := range m.Blocks {
		wb := &m.Blocks[i]
		bl := tuple.NewBlock(wb.ID)
		bl.PreAllocate(len(wb.Keys))
		for k := range wb.Keys {
			ks := &wb.Keys[k]
			if int(ks.KeyID) >= len(s.mirror) {
				return nil, fmt.Errorf("dist: shard %d: key id %d beyond mirror size %d",
					s.index, ks.KeyID, len(s.mirror))
			}
			bl.AddDenseCols(s.mirror[ks.KeyID], ks.Dense, ks.Cols, ks.Cols.Weight())
		}
		if outs[i], err = s.foldBlock(q, bl); err != nil {
			return nil, err
		}
	}

	s.busy += time.Since(t0)
	return &wire.MapResult{
		Batch:  m.Batch,
		Query:  m.Query,
		Outs:   outs,
		Factor: s.aimd.Factor,
	}, nil
}

// foldBlock runs one block's Map fold and converts the clusters to wire
// form, interning cluster keys against the mirror.
func (s *Shard) foldBlock(q engine.Query, bl *tuple.Block) (wire.BlockOut, error) {
	clusters, values := engine.MapBlock(q, bl)
	cs := make([]wire.Cluster, len(clusters))
	for ci := range clusters {
		id, ok := s.ids[clusters[ci].Key]
		if !ok {
			return wire.BlockOut{}, fmt.Errorf("dist: shard %d: map produced key %q absent from mirror",
				s.index, clusters[ci].Key)
		}
		cs[ci] = wire.Cluster{
			KeyID: id,
			Size:  clusters[ci].Size,
			Dense: clusters[ci].ID,
			Val:   values[ci],
		}
	}
	return wire.BlockOut{Clusters: cs}, nil
}

func (s *Shard) handleReduce(m *wire.ReduceTask) (wire.Msg, error) {
	if err := s.applyDelta(m.Dict); err != nil {
		return nil, err
	}
	q, err := s.query(m.Query)
	if err != nil {
		return nil, err
	}
	s.observeBatch(m.Batch)
	t0 := time.Now()

	outs := make([]wire.BucketOut, len(m.Buckets))
	for i := range m.Buckets {
		bk := &m.Buckets[i]
		// Fold in contribution order, emitting entries in first-seen key
		// order so replies are deterministic frame for frame. The fold
		// itself is key-agnostic (Reduce combines values), so intern IDs
		// group exactly as strings would.
		agg := make(map[uint32]float64, len(bk.Contribs))
		order := make([]uint32, 0, len(bk.Contribs))
		for _, c := range bk.Contribs {
			if int(c.KeyID) >= len(s.mirror) {
				return nil, fmt.Errorf("dist: shard %d: key id %d beyond mirror size %d",
					s.index, c.KeyID, len(s.mirror))
			}
			if cur, ok := agg[c.KeyID]; ok {
				agg[c.KeyID] = q.Reduce(cur, c.Val)
			} else {
				agg[c.KeyID] = c.Val
				order = append(order, c.KeyID)
			}
		}
		entries := make([]wire.Contrib, len(order))
		for j, id := range order {
			entries[j] = wire.Contrib{KeyID: id, Val: agg[id]}
		}
		outs[i] = wire.BucketOut{Bucket: bk.Bucket, Entries: entries}
	}

	s.busy += time.Since(t0)
	return &wire.ReduceResult{
		Batch:  m.Batch,
		Query:  m.Query,
		Outs:   outs,
		Factor: s.aimd.Factor,
	}, nil
}
