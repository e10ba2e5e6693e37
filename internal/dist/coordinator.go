package dist

import (
	"errors"
	"fmt"
	"sync"

	"prompt/internal/engine"
	"prompt/internal/intern"
	"prompt/internal/transport"
	"prompt/internal/tuple"
	"prompt/internal/wire"
)

// ErrShardDown marks exchanges skipped because a shard was declared dead
// after a failed redial. The coordinator recomputes that shard's work
// locally, so the error is informational: batch results are unaffected.
var ErrShardDown = errors.New("dist: shard down")

// Coordinator scatters a query job's data-plane folds across shards and
// gathers the results, implementing engine.JobExecutor. Install it with
// Engine.SetExecutor and the engine runs every simulation concern —
// partitioning, scheduling, fault injection, window state — exactly as
// in-process, while Map and Reduce folds execute on the shards.
//
// Placement is static and deterministic: block i of a batch goes to
// shard i mod n, bucket j to shard j mod n. Each scatter is one frame
// per shard per stage, with the intern-dictionary delta the frame's IDs
// need piggybacked on it. On multiplexed transports the frame is sent
// under the link lock but awaited outside it, so parallel query jobs
// (and pipelined batches) keep several task frames in flight on one
// shard connection; deltas are computed in send order, which the shard's
// arrival-order handling keeps gap-free.
//
// A shard whose exchange fails is redialed (the transport applies its
// backoff) and re-handshaken — the HelloAck's DictSize tells the
// coordinator where to restart the dictionary replay. If the redial
// fails, the shard is marked down and its work is recomputed locally:
// shard loss is a wall-clock event, invisible to the simulated report
// fields, just as worker-count changes are in-process.
type Coordinator struct {
	tr       transport.Transport
	queries  []engine.Query
	names    []string
	interval tuple.Time
	dict     *intern.Dict
	links    []*link

	// mu guards active: how many shards the scatter loops currently use.
	// Rescale (the engine's elastic handoff hook) shrinks or grows it
	// within [1, len(links)] at batch boundaries; dialed links beyond the
	// active count stay connected, ready to rejoin without a handshake.
	mu     sync.Mutex
	active int
}

type link struct {
	mu     sync.Mutex
	shard  int
	conn   transport.Conn
	sent   int // dict entries the shard already mirrors
	gen    int // connection generation; handshake bumps it
	down   bool
	factor float64
}

// NewCoordinator dials and handshakes every shard of the transport.
// interval is the engine's batch interval (shards judge back-pressure
// against it); queries must match the shards' construction, in order.
func NewCoordinator(tr transport.Transport, interval tuple.Time, queries []engine.Query) (*Coordinator, error) {
	n := tr.Shards()
	if n < 1 {
		return nil, fmt.Errorf("dist: transport has no shards")
	}
	c := &Coordinator{
		tr:       tr,
		queries:  make([]engine.Query, len(queries)),
		names:    make([]string, len(queries)),
		interval: interval,
		dict:     intern.NewDict(0),
		links:    make([]*link, n),
		active:   n,
	}
	for i, q := range queries {
		c.queries[i] = q.Normalized()
		c.names[i] = q.Name
	}
	for s := 0; s < n; s++ {
		l := &link{shard: s, factor: 1}
		if err := c.handshake(l); err != nil {
			return nil, err
		}
		c.links[s] = l
	}
	return c, nil
}

// handshake dials l.shard and runs the Hello exchange, setting the
// link's dictionary watermark from the shard's acknowledged mirror size.
// Callers hold l.mu (or own the link exclusively, as NewCoordinator
// does).
func (c *Coordinator) handshake(l *link) error {
	conn, err := c.tr.Dial(l.shard)
	if err != nil {
		return fmt.Errorf("dist: shard %d: %w", l.shard, err)
	}
	reply, err := conn.Exchange(&wire.Hello{
		Shard:    l.shard,
		Shards:   len(c.links),
		Queries:  c.names,
		Interval: c.interval,
	})
	if err != nil {
		conn.Close()
		return fmt.Errorf("dist: shard %d handshake: %w", l.shard, err)
	}
	ack, ok := reply.(*wire.HelloAck)
	if !ok {
		conn.Close()
		return fmt.Errorf("dist: shard %d handshake: unexpected %v reply", l.shard, reply.WireType())
	}
	if ack.Queries != len(c.names) {
		conn.Close()
		return fmt.Errorf("dist: shard %d acknowledges %d queries, want %d", l.shard, ack.Queries, len(c.names))
	}
	if int(ack.DictSize) > c.dict.Len() {
		conn.Close()
		return fmt.Errorf("dist: shard %d mirrors %d dict entries, coordinator has %d",
			l.shard, ack.DictSize, c.dict.Len())
	}
	if l.conn != nil {
		l.conn.Close()
	}
	l.conn = conn
	l.sent = int(ack.DictSize)
	l.gen++
	l.down = false
	return nil
}

// Shards returns the topology size.
func (c *Coordinator) Shards() int { return len(c.links) }

// Active returns how many shards the scatter loops currently use.
func (c *Coordinator) Active() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.active
}

// Rescale implements engine.Rescaler: subsequent batches scatter work
// across min(n, Shards()) shards. Growing past the dialed topology is
// clamped, not an error — the engine's owner count is virtual and may
// exceed the physical shard set.
func (c *Coordinator) Rescale(n int) error {
	if n < 1 {
		return fmt.Errorf("dist: active shard count must be positive, got %d", n)
	}
	if n > len(c.links) {
		n = len(c.links)
	}
	c.mu.Lock()
	c.active = n
	c.mu.Unlock()
	return nil
}

// MigrateSlot implements engine.SlotMigrator: it ships a slot's state
// image to the handoff recipient's shard and verifies the acknowledged
// digest. The frame bypasses the dictionary-delta machinery — the image
// is self-contained, carrying its own key strings — so the link's
// mirror watermark is untouched. Like task exchanges, a failed send gets
// one redial before the shard is marked down; the caller treats any
// error as a lost replica, never lost state (the driver already holds
// the authoritative copy).
func (c *Coordinator) MigrateSlot(slot, epoch, from, to int, image []byte, digest uint64) error {
	l := c.links[to%len(c.links)]
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return fmt.Errorf("%w: shard %d", ErrShardDown, l.shard)
	}
	msg := &wire.Migrate{Batch: epoch, Slot: slot, From: from, To: to, Image: image, Digest: digest}
	reply, err := l.conn.Exchange(msg)
	if err != nil {
		var we *wire.Error
		if errors.As(err, &we) {
			return err
		}
		if herr := c.handshake(l); herr != nil {
			l.down = true
			return fmt.Errorf("dist: shard %d lost (%v) and redial failed: %w", l.shard, err, herr)
		}
		if reply, err = l.conn.Exchange(msg); err != nil {
			l.down = true
			return fmt.Errorf("dist: shard %d failed after reconnect: %w", l.shard, err)
		}
	}
	ack, ok := reply.(*wire.MigrateAck)
	if !ok {
		return fmt.Errorf("dist: shard %d: unexpected %v reply to migrate frame", l.shard, reply.WireType())
	}
	if ack.Slot != slot || ack.Digest != digest {
		return fmt.Errorf("dist: shard %d acknowledged slot %d digest %x, sent slot %d digest %x",
			l.shard, ack.Slot, ack.Digest, slot, digest)
	}
	return nil
}

// Down reports how many shards are currently marked dead.
func (c *Coordinator) Down() int {
	n := 0
	for _, l := range c.links {
		l.mu.Lock()
		if l.down {
			n++
		}
		l.mu.Unlock()
	}
	return n
}

// BackpressureFactor is the cluster admission factor: the minimum AIMD
// factor any live shard reported on its latest reply (1 when no shard
// has reported yet). The coordinator's ingestion throttle multiplies its
// offered rate by it, propagating shard-side pressure upstream.
func (c *Coordinator) BackpressureFactor() float64 {
	min := 1.0
	for _, l := range c.links {
		l.mu.Lock()
		if !l.down && l.factor < min {
			min = l.factor
		}
		l.mu.Unlock()
	}
	return min
}

// Close closes every shard connection and the transport.
func (c *Coordinator) Close() error {
	for _, l := range c.links {
		l.mu.Lock()
		if l.conn != nil {
			l.conn.Close()
			l.conn = nil
		}
		l.down = true
		l.mu.Unlock()
	}
	return c.tr.Close()
}

// delta computes the dictionary delta a shard still needs, advancing the
// link's mirror watermark to the current dictionary length. Callers hold
// l.mu, so the delta and the watermark advance are atomic with respect
// to other exchanges on the link: each frame's delta starts exactly
// where the previous frame's ended. The advance is optimistic — if the
// frame is later lost, the redial handshake resets l.sent from the
// shard's re-acknowledged mirror size.
func (c *Coordinator) delta(l *link) wire.DictDelta {
	n := c.dict.Len()
	d := wire.DictDelta{First: uint32(l.sent), Keys: []string{}}
	if n > l.sent {
		keys := make([]string, n-l.sent)
		for i := range keys {
			keys[i] = c.dict.Resolve(uint32(l.sent + i))
		}
		d.Keys = keys
	}
	l.sent = n
	return d
}

// exchange sends one task frame to a shard and returns the reply. mk
// builds the frame around the dictionary delta the shard still needs; it
// may be called twice (the retry after a redial re-derives the delta
// from the re-acknowledged watermark).
//
// On multiplexed connections only the send runs under the link lock —
// the frame (with its delta) is queued in lock order and the caller then
// awaits the reply unlocked, so several task frames ride the connection
// concurrently. A failed exchange triggers one redial + re-handshake per
// connection generation; if that also fails the shard is marked down.
// In-flight peers that failed alongside retry on the already-fresh
// connection without paying a second redial.
func (c *Coordinator) exchange(l *link, mk func(d wire.DictDelta) wire.Msg) (wire.Msg, error) {
	l.mu.Lock()
	if l.down {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: shard %d", ErrShardDown, l.shard)
	}
	gen := l.gen
	bg, muxed := l.conn.(transport.Beginner)
	if !muxed {
		// Strict request-reply (loopback): the whole exchange serializes
		// on the link.
		reply, err := l.conn.Exchange(mk(c.delta(l)))
		l.mu.Unlock()
		if err == nil {
			return reply, nil
		}
		var we *wire.Error
		if errors.As(err, &we) {
			// The shard answered: the stream is healthy, the task is what
			// failed. Surface it without tearing the link down.
			return nil, err
		}
		return c.retryExchange(l, gen, err, mk)
	}
	p, err := bg.Begin(mk(c.delta(l)))
	l.mu.Unlock()
	if err == nil {
		var reply wire.Msg
		if reply, err = p.Await(); err == nil {
			return reply, nil
		}
		var we *wire.Error
		if errors.As(err, &we) {
			return nil, err
		}
	}
	return c.retryExchange(l, gen, err, mk)
}

// retryExchange is the slow path after a failed exchange on connection
// generation gen: the first failure of a generation pays the one redial
// (marking the shard down if it fails); failures of frames that were in
// flight alongside it find the generation already advanced and go
// straight to a strict request-reply retry on the fresh connection. A
// second failure marks the shard down.
func (c *Coordinator) retryExchange(l *link, gen int, cause error, mk func(d wire.DictDelta) wire.Msg) (wire.Msg, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return nil, fmt.Errorf("%w: shard %d (lost frame: %v)", ErrShardDown, l.shard, cause)
	}
	if l.gen == gen {
		if herr := c.handshake(l); herr != nil {
			l.down = true
			return nil, fmt.Errorf("dist: shard %d lost (%v) and redial failed: %w", l.shard, cause, herr)
		}
	}
	reply, err := l.conn.Exchange(mk(c.delta(l)))
	if err == nil {
		return reply, nil
	}
	var we *wire.Error
	if errors.As(err, &we) {
		return nil, err
	}
	l.down = true
	return nil, fmt.Errorf("dist: shard %d failed after reconnect: %w", l.shard, err)
}

// noteFactor records a reply's piggybacked back-pressure factor.
func (l *link) noteFactor(f float64) {
	if f <= 0 || f > 1 {
		return
	}
	l.mu.Lock()
	l.factor = f
	l.mu.Unlock()
}

// resolve maps a shard-reported intern ID back to its key string,
// erroring (not panicking) on an ID the coordinator never issued.
func (c *Coordinator) resolve(id uint32) (string, error) {
	if int(id) >= c.dict.Len() {
		return "", fmt.Errorf("dist: shard reported unknown key id %d", id)
	}
	return c.dict.Resolve(id), nil
}

// MapBlocks implements engine.JobExecutor: block i goes to shard
// i mod n, all of a shard's blocks in one frame, shards exchanged in
// parallel. Blocks of down shards (or shards that die mid-exchange and
// resist redial) are folded locally.
func (c *Coordinator) MapBlocks(batch, qi int, blocks []*tuple.Block, reduceTasks int) ([]engine.BlockMapOut, error) {
	if qi < 0 || qi >= len(c.queries) {
		return nil, fmt.Errorf("dist: query index %d out of range [0,%d)", qi, len(c.queries))
	}
	n := c.Active()
	outs := make([]engine.BlockMapOut, len(blocks))
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		var idxs []int
		for i := s; i < len(blocks); i += n {
			idxs = append(idxs, i)
		}
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, idxs []int) {
			defer wg.Done()
			errs[s] = c.mapOnShard(batch, qi, blocks, idxs, outs)
		}(s, idxs)
	}
	wg.Wait()
	for s := range errs {
		if errs[s] != nil {
			return nil, errs[s]
		}
	}
	return outs, nil
}

// mapOnShard runs one shard's share of a Map stage and writes results
// into outs at the original block indices; it falls back to local folds
// when the shard is unreachable.
func (c *Coordinator) mapOnShard(batch, qi int, blocks []*tuple.Block, idxs []int, outs []engine.BlockMapOut) error {
	l := c.links[idxs[0]%len(c.links)]

	// Intern every key before building the frame so the delta computed at
	// send time covers all IDs the frame references. Key runs travel as
	// the blocks hold them — column views, delta-encoded by the codec — so
	// neither side materializes rows.
	wbs := make([]wire.ColBlock, len(idxs))
	for bi, i := range idxs {
		bl := blocks[i]
		wb := wire.ColBlock{ID: bl.ID, Keys: make([]wire.ColKeySlice, len(bl.Keys))}
		for k := range bl.Keys {
			ks := &bl.Keys[k]
			wb.Keys[k] = wire.ColKeySlice{
				KeyID: c.dict.Intern(ks.Key),
				Dense: ks.ID,
				Cols:  ks.Cols,
			}
		}
		wbs[bi] = wb
	}

	reply, err := c.exchange(l, func(d wire.DictDelta) wire.Msg {
		return &wire.MapTaskCols{Batch: batch, Query: qi, Dict: d, Blocks: wbs}
	})
	if err != nil {
		// A wire.Error means the shard is healthy but rejected the task —
		// a protocol bug that must fail loudly, not be papered over.
		var we *wire.Error
		if errors.As(err, &we) {
			return err
		}
		// Shard unreachable: fold locally. Same functions, same blocks,
		// same results — only wall-clock time changes.
		q := c.queries[qi]
		for _, i := range idxs {
			clusters, values := engine.MapBlock(q, blocks[i])
			outs[i] = engine.BlockMapOut{Clusters: clusters, Values: values}
		}
		return nil
	}
	mr, ok := reply.(*wire.MapResult)
	if !ok {
		return fmt.Errorf("dist: shard %d: unexpected %v reply to map task", l.shard, reply.WireType())
	}
	if mr.Batch != batch || mr.Query != qi || len(mr.Outs) != len(idxs) {
		return fmt.Errorf("dist: shard %d: map reply (batch %d query %d outs %d) does not match task (batch %d query %d blocks %d)",
			l.shard, mr.Batch, mr.Query, len(mr.Outs), batch, qi, len(idxs))
	}
	l.noteFactor(mr.Factor)
	for bi, i := range idxs {
		cs := mr.Outs[bi].Clusters
		out := engine.BlockMapOut{
			Clusters: make([]tuple.Cluster, len(cs)),
			Values:   make([]float64, len(cs)),
		}
		for ci := range cs {
			key, err := c.resolve(cs[ci].KeyID)
			if err != nil {
				return err
			}
			out.Clusters[ci] = tuple.Cluster{Key: key, Size: cs[ci].Size, ID: cs[ci].Dense}
			out.Values[ci] = cs[ci].Val
		}
		outs[i] = out
	}
	return nil
}

// ReduceBuckets implements engine.JobExecutor: bucket j goes to shard
// j mod n, all of a shard's buckets in one frame, shards exchanged in
// parallel, local folds for unreachable shards.
func (c *Coordinator) ReduceBuckets(batch, qi int, perBucket [][]engine.Contrib) ([]map[string]float64, error) {
	if qi < 0 || qi >= len(c.queries) {
		return nil, fmt.Errorf("dist: query index %d out of range [0,%d)", qi, len(c.queries))
	}
	n := c.Active()
	partials := make([]map[string]float64, len(perBucket))
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		var idxs []int
		for j := s; j < len(perBucket); j += n {
			idxs = append(idxs, j)
		}
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, idxs []int) {
			defer wg.Done()
			errs[s] = c.reduceOnShard(batch, qi, perBucket, idxs, partials)
		}(s, idxs)
	}
	wg.Wait()
	for s := range errs {
		if errs[s] != nil {
			return nil, errs[s]
		}
	}
	return partials, nil
}

func (c *Coordinator) reduceOnShard(batch, qi int, perBucket [][]engine.Contrib, idxs []int, partials []map[string]float64) error {
	l := c.links[idxs[0]%len(c.links)]

	wbks := make([]wire.Bucket, len(idxs))
	for bi, j := range idxs {
		contribs := make([]wire.Contrib, len(perBucket[j]))
		for k := range perBucket[j] {
			contribs[k] = wire.Contrib{
				KeyID: c.dict.Intern(perBucket[j][k].Key),
				Val:   perBucket[j][k].Val,
			}
		}
		wbks[bi] = wire.Bucket{Bucket: j, Contribs: contribs}
	}

	reply, err := c.exchange(l, func(d wire.DictDelta) wire.Msg {
		return &wire.ReduceTask{Batch: batch, Query: qi, Dict: d, Buckets: wbks}
	})
	if err != nil {
		var we *wire.Error
		if errors.As(err, &we) {
			return err
		}
		q := c.queries[qi]
		for _, j := range idxs {
			partials[j] = engine.FoldBucket(q, perBucket[j])
		}
		return nil
	}
	rr, ok := reply.(*wire.ReduceResult)
	if !ok {
		return fmt.Errorf("dist: shard %d: unexpected %v reply to reduce task", l.shard, reply.WireType())
	}
	if rr.Batch != batch || rr.Query != qi || len(rr.Outs) != len(idxs) {
		return fmt.Errorf("dist: shard %d: reduce reply (batch %d query %d outs %d) does not match task (batch %d query %d buckets %d)",
			l.shard, rr.Batch, rr.Query, len(rr.Outs), batch, qi, len(idxs))
	}
	l.noteFactor(rr.Factor)
	for bi, j := range idxs {
		o := &rr.Outs[bi]
		if o.Bucket != j {
			return fmt.Errorf("dist: shard %d: reduce reply bucket %d, want %d", l.shard, o.Bucket, j)
		}
		m := make(map[string]float64, len(o.Entries))
		for _, e := range o.Entries {
			key, err := c.resolve(e.KeyID)
			if err != nil {
				return err
			}
			m[key] = e.Val
		}
		partials[j] = m
	}
	return nil
}

// Coordinator is an engine.JobExecutor and the elastic runtime's
// executor-side hooks.
var (
	_ engine.JobExecutor  = (*Coordinator)(nil)
	_ engine.Rescaler     = (*Coordinator)(nil)
	_ engine.SlotMigrator = (*Coordinator)(nil)
)
