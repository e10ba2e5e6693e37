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

// ErrBadReply marks a shard reply that does not answer the task it was
// sent: a mismatched header, an empty cluster, a cluster naming a key that
// is not the block's (in block order), or Reduce entries that are not
// exactly the bucket's keys. The coordinator checks every entry before
// anything indexes by its ID.
var ErrBadReply = errors.New("dist: bad shard reply")

// Coordinator scatters a query job's data-plane folds across shards and
// gathers the results, implementing engine.JobExecutor. Install it with
// Engine.SetExecutor and the engine runs every simulation concern —
// partitioning, scheduling, fault injection, window state — exactly as
// in-process, while Map and Reduce folds execute on the shards.
//
// Placement is static and deterministic: block i of a batch goes to
// shard i mod n, bucket j to shard j mod n. Each scatter is one frame
// per shard per stage. Shards mirror the engine's dictionary, handed to
// every JobExecutor call, so wire key IDs are engine IDs; each frame
// piggybacks the dictionary delta the shard still lacks. On multiplexed
// transports the frame is sent under the link lock but awaited outside
// it, so parallel query jobs (and pipelined batches) keep several task
// frames in flight on one shard connection; deltas are computed in send
// order, which the shard's arrival-order handling keeps gap-free.
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
		links:    make([]*link, n),
		active:   n,
	}
	for i, q := range queries {
		c.queries[i] = q.Normalized()
		c.names[i] = q.Name
	}
	for s := 0; s < n; s++ {
		l := &link{shard: s, factor: 1}
		if err := c.handshake(l, 0); err != nil {
			return nil, err
		}
		c.links[s] = l
	}
	return c, nil
}

// handshake dials l.shard and runs the Hello exchange, setting the
// link's dictionary watermark from the shard's acknowledged mirror size,
// which may not exceed dictLen, the engine dictionary's size (0 before
// the first task). Callers hold l.mu (or own the link exclusively, as
// NewCoordinator does).
func (c *Coordinator) handshake(l *link, dictLen int) error {
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
	if int(ack.DictSize) > dictLen {
		conn.Close()
		return fmt.Errorf("dist: shard %d mirrors %d dict entries, coordinator has %d",
			l.shard, ack.DictSize, dictLen)
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
		if herr := c.handshake(l, l.sent); herr != nil {
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
func delta(l *link, dict *intern.Dict) wire.DictDelta {
	strs := dict.Strings()
	d := wire.DictDelta{First: uint32(l.sent), Keys: []string{}}
	if len(strs) > l.sent {
		d.Keys = strs[l.sent:]
	}
	l.sent = len(strs)
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
func (c *Coordinator) exchange(l *link, dict *intern.Dict, mk func(d wire.DictDelta) wire.Msg) (wire.Msg, error) {
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
		reply, err := l.conn.Exchange(mk(delta(l, dict)))
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
		return c.retryExchange(l, dict, gen, err, mk)
	}
	p, err := bg.Begin(mk(delta(l, dict)))
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
	return c.retryExchange(l, dict, gen, err, mk)
}

// retryExchange is the slow path after a failed exchange on connection
// generation gen: the first failure of a generation pays the one redial
// (marking the shard down if it fails); failures of frames that were in
// flight alongside it find the generation already advanced and go
// straight to a strict request-reply retry on the fresh connection. A
// second failure marks the shard down.
func (c *Coordinator) retryExchange(l *link, dict *intern.Dict, gen int, cause error, mk func(d wire.DictDelta) wire.Msg) (wire.Msg, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return nil, fmt.Errorf("%w: shard %d (lost frame: %v)", ErrShardDown, l.shard, cause)
	}
	if l.gen == gen {
		if herr := c.handshake(l, dict.Len()); herr != nil {
			l.down = true
			return nil, fmt.Errorf("dist: shard %d lost (%v) and redial failed: %w", l.shard, cause, herr)
		}
	}
	reply, err := l.conn.Exchange(mk(delta(l, dict)))
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

// scatter runs one stage across the active shards: task i of n goes to
// shard i mod (active shards), each shard's share (its task indices, in
// order) handled by run on its own goroutine.
func (c *Coordinator) scatter(qi, n int, run func(idxs []int) error) error {
	if qi < 0 || qi >= len(c.queries) {
		return fmt.Errorf("dist: query index %d out of range [0,%d)", qi, len(c.queries))
	}
	shards := c.Active()
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards && s < n; s++ {
		var idxs []int
		for i := s; i < n; i += shards {
			idxs = append(idxs, i)
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = run(idxs)
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// MapBlocks implements engine.JobExecutor: all of a shard's blocks go in
// one frame, shards exchanged in parallel. Blocks of down shards (or
// shards that die mid-exchange and resist redial) are folded locally.
func (c *Coordinator) MapBlocks(batch, qi int, dict *intern.Dict, blocks []*tuple.Block, _ int) ([]engine.BlockMapOut, error) {
	outs := make([]engine.BlockMapOut, len(blocks))
	err := c.scatter(qi, len(blocks), func(idxs []int) error {
		return c.mapOnShard(batch, qi, dict, blocks, idxs, outs)
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// mapOnShard runs one shard's share of a Map stage and writes results
// into outs at the original block indices; it falls back to local folds
// when the shard is unreachable.
func (c *Coordinator) mapOnShard(batch, qi int, dict *intern.Dict, blocks []*tuple.Block, idxs []int, outs []engine.BlockMapOut) error {
	l := c.links[idxs[0]%len(c.links)]

	// Key runs travel as the blocks hold them — engine key IDs and column
	// views, delta-encoded by the codec — so neither side materializes
	// rows.
	wbs := make([]wire.ColBlock, len(idxs))
	for bi, i := range idxs {
		bl := blocks[i]
		wb := wire.ColBlock{ID: bl.ID, Keys: make([]wire.ColKeySlice, len(bl.Keys))}
		for k := range bl.Keys {
			wb.Keys[k] = wire.ColKeySlice{KeyID: bl.Keys[k].ID, Cols: bl.Keys[k].Cols}
		}
		wbs[bi] = wb
	}

	reply, err := c.exchange(l, dict, func(d wire.DictDelta) wire.Msg {
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
		return fmt.Errorf("%w: shard %d: map reply (batch %d query %d outs %d) does not match task (batch %d query %d blocks %d)",
			ErrBadReply, l.shard, mr.Batch, mr.Query, len(mr.Outs), batch, qi, len(idxs))
	}
	l.noteFactor(mr.Factor)
	strs := dict.Strings()
	for bi, i := range idxs {
		keys, cs := blocks[i].Keys, mr.Outs[bi].Clusters
		out := engine.BlockMapOut{
			Clusters: make([]tuple.Cluster, len(cs)),
			Values:   make([]float64, len(cs)),
		}
		// MapBlock emits each key at its first run, so an honest reply's
		// IDs are a subsequence of the block's.
		k := 0
		for ci, c := range cs {
			for k < len(keys) && keys[k].ID != c.KeyID {
				k++
			}
			if k == len(keys) || c.Size < 1 {
				return fmt.Errorf("%w: shard %d: block %d cluster %d (key id %d, size %d) is not the block's",
					ErrBadReply, l.shard, blocks[i].ID, ci, c.KeyID, c.Size)
			}
			k++
			out.Clusters[ci] = tuple.Cluster{Key: strs[c.KeyID], ID: c.KeyID, Size: c.Size}
			out.Values[ci] = c.Val
		}
		outs[i] = out
	}
	return nil
}

// ReduceBuckets implements engine.JobExecutor: all of a shard's buckets go
// in one frame, shards exchanged in parallel, local folds for unreachable
// shards.
func (c *Coordinator) ReduceBuckets(batch, qi int, dict *intern.Dict, perBucket [][]engine.Contrib) ([]engine.Result, error) {
	partials := make([]engine.Result, len(perBucket))
	err := c.scatter(qi, len(perBucket), func(idxs []int) error {
		return c.reduceOnShard(batch, qi, dict, perBucket, idxs, partials)
	})
	if err != nil {
		return nil, err
	}
	return partials, nil
}

func (c *Coordinator) reduceOnShard(batch, qi int, dict *intern.Dict, perBucket [][]engine.Contrib, idxs []int, partials []engine.Result) error {
	l := c.links[idxs[0]%len(c.links)]

	wbks := make([]wire.Bucket, len(idxs))
	for bi, j := range idxs {
		contribs := make([]wire.Contrib, len(perBucket[j]))
		for k, ct := range perBucket[j] {
			contribs[k] = wire.Contrib{KeyID: ct.ID, Val: ct.Val}
		}
		wbks[bi] = wire.Bucket{Bucket: j, Contribs: contribs}
	}

	reply, err := c.exchange(l, dict, func(d wire.DictDelta) wire.Msg {
		return &wire.ReduceTask{Batch: batch, Query: qi, Dict: d, Buckets: wbks}
	})
	if err != nil {
		var we *wire.Error
		if errors.As(err, &we) {
			return err
		}
		sub := make([][]engine.Contrib, len(idxs))
		for bi, j := range idxs {
			sub[bi] = perBucket[j]
		}
		for bi, res := range engine.ReduceLocal(nil, c.queries[qi], dict, sub) {
			partials[idxs[bi]] = res
		}
		return nil
	}
	rr, ok := reply.(*wire.ReduceResult)
	if !ok {
		return fmt.Errorf("dist: shard %d: unexpected %v reply to reduce task", l.shard, reply.WireType())
	}
	if rr.Batch != batch || rr.Query != qi || len(rr.Outs) != len(idxs) {
		return fmt.Errorf("%w: shard %d: reduce reply (batch %d query %d outs %d) does not match task (batch %d query %d buckets %d)",
			ErrBadReply, l.shard, rr.Batch, rr.Query, len(rr.Outs), batch, qi, len(idxs))
	}
	l.noteFactor(rr.Factor)
	marks := engine.GetPositions(dict.Len())
	defer engine.PutPositions(marks)
	for bi, j := range idxs {
		o := &rr.Outs[bi]
		if o.Bucket != j {
			return fmt.Errorf("%w: shard %d: reduce reply bucket %d, want %d", ErrBadReply, l.shard, o.Bucket, j)
		}
		if err := checkEntries(*marks, perBucket[j], o.Entries); err != nil {
			return fmt.Errorf("%w: shard %d: bucket %d: %v", ErrBadReply, l.shard, j, err)
		}
		res := engine.Result{IDs: make([]uint32, len(o.Entries)), Vals: make([]float64, len(o.Entries))}
		for k, en := range o.Entries {
			res.IDs[k], res.Vals[k] = en.KeyID, en.Val
		}
		partials[j] = res
	}
	return nil
}

// checkEntries verifies a bucket's Reduce reply: one entry per distinct
// contributed key. marks covers every contributed ID, is all zeros on
// entry and is left so.
func checkEntries(marks engine.Positions, contribs []engine.Contrib, entries []wire.Contrib) error {
	keys := 0
	for _, ct := range contribs {
		if marks[ct.ID] == 0 {
			marks[ct.ID] = 1
			keys++
		}
	}
	defer func() {
		for _, ct := range contribs {
			marks[ct.ID] = 0
		}
	}()
	if len(entries) != keys {
		return fmt.Errorf("%d entries for %d keys", len(entries), keys)
	}
	for _, en := range entries {
		if int(en.KeyID) >= len(marks) || marks[en.KeyID] != 1 {
			return fmt.Errorf("entry key id %d is not a contributed key or repeats one", en.KeyID)
		}
		marks[en.KeyID] = 2
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
