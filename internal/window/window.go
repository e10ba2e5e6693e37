// Package window implements windowed aggregation over micro-batch results
// (Figure 3 of the paper): the query answer is the aggregate of all batch
// outputs inside the window's time predicate, maintained incrementally.
// Batches that exit the window are reflected onto the answer with an
// inverse Reduce function, avoiding re-evaluation; when no inverse exists,
// the aggregator falls back to recomputing from the retained batch outputs.
//
// The state is keyed by intern ID and physically partitioned by the
// dictionary's virtual slots (intern.Slots): every retained batch keeps one
// pair of columns per slot, so a slot — the unit rescaling moves and
// checkpoints serialize — is detached, exported and attached in time
// proportional to that slot alone (slot.go). Batches arrive as ID columns
// (AddColumns); key strings appear only at the edges: the AddBatch adapter's
// input map, Snapshot, Value, Recompute and the k results of TopK.
package window

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// ReduceFn combines two partial aggregate values for the same key.
type ReduceFn func(a, b float64) float64

// Sum is the additive reduce used by the counting and total queries.
func Sum(a, b float64) float64 { return a + b }

// SumInverse removes b from a, the inverse of Sum.
func SumInverse(a, b float64) float64 { return a - b }

// Max keeps the larger value. It has no inverse; windows using it fall
// back to recompute-on-evict.
func Max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Spec defines a sliding window. Slide == Length gives a tumbling window.
type Spec struct {
	Length tuple.Time
	Slide  tuple.Time
}

// Validate rejects degenerate windows.
func (s Spec) Validate() error {
	if s.Length <= 0 {
		return fmt.Errorf("window: length must be positive, got %v", s.Length)
	}
	if s.Slide <= 0 {
		return fmt.Errorf("window: slide must be positive, got %v", s.Slide)
	}
	if s.Slide > s.Length {
		return fmt.Errorf("window: slide %v exceeds length %v", s.Slide, s.Length)
	}
	return nil
}

// Tumbling returns a window whose slide equals its length.
func Tumbling(length tuple.Time) Spec { return Spec{Length: length, Slide: length} }

// Sliding returns a sliding window spec.
func Sliding(length, slide tuple.Time) Spec { return Spec{Length: length, Slide: slide} }

// cell is one key's incremental window state, addressed by intern ID.
type cell struct {
	val float64
	n   int32 // retained batches contributing to the key; 0 = not live
	pos int32 // index in its slot's live list while n > 0, scratch otherwise
}

// column is one retained batch's contributions to one slot: parallel
// columns, one entry per key the batch carried for that slot.
type column struct {
	ids  []uint32
	vals []float64
}

// batch is one batch output kept while the batch is inside the window (it
// doubles as the replicated batch state the paper's consistency section
// describes), partitioned by slot.
type batch struct {
	end  tuple.Time
	cols [intern.Slots]column
}

// Aggregator maintains the per-key window state across batch outputs.
// It is safe for concurrent use: writers (AddColumns, AddBatch and the
// slot hand-off calls of slot.go) take an exclusive lock while reads
// (Snapshot, Value, TopK, Recompute) share one, so the parallel runtime
// can merge different queries' windows on worker goroutines while
// observers read current answers. Batch ends must still be
// non-decreasing, so each aggregator has one logical writer per batch —
// the engine's driver barrier provides that ordering.
type Aggregator struct {
	mu      sync.RWMutex
	spec    Spec
	reduce  ReduceFn
	inverse ReduceFn // nil => recompute on evict
	dict    *intern.Dict

	batches []*batch // retained batch outputs, oldest first
	// free holds evicted batches: the next AddColumns refills their columns,
	// so steady-state add + evict allocates nothing per key.
	free  []*batch
	cells []cell // by intern ID; grown on demand, never shrunk
	// live[s] lists the IDs of slot s whose cell is live, in no particular
	// order (cell.pos points back), so reads and hand-offs visit live keys
	// only, never the whole dictionary.
	live [intern.Slots][]uint32
}

// NewAggregator returns a window aggregator with a private key
// dictionary. inverse may be nil for non-invertible reduce functions.
func NewAggregator(spec Spec, reduce, inverse ReduceFn) (*Aggregator, error) {
	return NewAggregatorDict(spec, reduce, inverse, intern.NewDict(0))
}

// NewAggregatorDict is NewAggregator over a shared dictionary — the
// stream's, whose IDs the batch pipeline already issued — so every
// aggregator of an engine addresses a key by the same ID.
func NewAggregatorDict(spec Spec, reduce, inverse ReduceFn, dict *intern.Dict) (*Aggregator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if reduce == nil {
		return nil, fmt.Errorf("window: reduce function is required")
	}
	if dict == nil {
		return nil, fmt.Errorf("window: key dictionary is required")
	}
	return &Aggregator{spec: spec, reduce: reduce, inverse: inverse, dict: dict}, nil
}

// Spec returns the window specification.
func (ag *Aggregator) Spec() Spec { return ag.spec }

// Dict returns the dictionary the aggregator's key IDs belong to.
func (ag *Aggregator) Dict() *intern.Dict { return ag.dict }

// Batches returns the number of batch outputs currently inside the window.
func (ag *Aggregator) Batches() int {
	ag.mu.RLock()
	defer ag.mu.RUnlock()
	return len(ag.batches)
}

// AddColumns merges one batch output ending at the given time into the
// window state — per-key partial aggregates as a pair of columns, key IDs
// in the aggregator's dictionary, each once — and evicts batches that have
// fallen out of [end-Length, end). Batch ends must be non-decreasing. The
// columns are not retained.
func (ag *Aggregator) AddColumns(end tuple.Time, ids []uint32, vals []float64) error {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	if n := len(ag.batches); n > 0 && end < ag.batches[n-1].end {
		return fmt.Errorf("window: batch end %v precedes previous %v", end, ag.batches[n-1].end)
	}
	var b *batch
	if n := len(ag.free); n > 0 {
		b, ag.free = ag.free[n-1], ag.free[:n-1]
	} else {
		b = new(batch)
	}
	b.end = end
	// One view of the append-only slot cache covers every ID the caller
	// can hold: placing a key costs an index, not a lock.
	slots := ag.dict.Slots()
	for j, id := range ids {
		slot := int(slots[id])
		ag.fold(id, slot, vals[j])
		col := &b.cols[slot]
		col.ids = append(col.ids, id)
		col.vals = append(col.vals, vals[j])
	}
	ag.batches = append(ag.batches, b)
	ag.evict(end)
	return nil
}

// AddBatch is AddColumns for a keyed result map, interning keys the
// dictionary has never seen. The map is not retained.
func (ag *Aggregator) AddBatch(end tuple.Time, result map[string]float64) error {
	ids := make([]uint32, 0, len(result))
	vals := make([]float64, 0, len(result))
	for k, v := range result {
		ids = append(ids, ag.dict.Intern(k))
		vals = append(vals, v)
	}
	return ag.AddColumns(end, ids, vals)
}

// fold merges one contribution into the key's cell, reviving the cell if
// the key was not live. Every path that builds incremental state —
// AddColumns, the no-inverse rebuild, AttachSlot — folds through here in
// batch order, so a key's value never depends on which path produced it.
func (ag *Aggregator) fold(id uint32, slot int, v float64) {
	if int(id) >= len(ag.cells) {
		n := max(int(id)+1, ag.dict.Len())
		ag.cells = append(ag.cells, make([]cell, n-len(ag.cells))...)
	}
	c := &ag.cells[id]
	if c.n == 0 {
		c.val = v
		c.pos = int32(len(ag.live[slot]))
		ag.live[slot] = append(ag.live[slot], id)
	} else {
		c.val = ag.reduce(c.val, v)
	}
	c.n++
}

// evict removes batches whose end time is at or before now-Length.
func (ag *Aggregator) evict(now tuple.Time) {
	cutoff := now - ag.spec.Length
	i := 0
	for i < len(ag.batches) && ag.batches[i].end <= cutoff {
		i++
	}
	if i == 0 {
		return
	}
	for _, b := range ag.batches[:i] {
		for s := range b.cols {
			col := &b.cols[s]
			if ag.inverse != nil {
				ag.retract(s, col)
			}
			col.ids, col.vals = col.ids[:0], col.vals[:0]
		}
		ag.free = append(ag.free, b)
	}
	n := copy(ag.batches, ag.batches[i:])
	clear(ag.batches[n:])
	ag.batches = ag.batches[:n]
	if ag.inverse != nil {
		return
	}
	// No inverse: recompute from the retained batches. The cells are
	// reset and refilled in place — steady-state evictions must not
	// allocate (the hot-path discipline of DESIGN.md §7).
	for s := range ag.live {
		ag.dropLive(s)
	}
	for _, b := range ag.batches {
		for s := range b.cols {
			col := &b.cols[s]
			for j, id := range col.ids {
				ag.fold(id, s, col.vals[j])
			}
		}
	}
}

// retract reflects one expired column onto the cells with the inverse
// function, retiring keys no retained batch contributes to any more.
func (ag *Aggregator) retract(slot int, col *column) {
	for j, id := range col.ids {
		c := &ag.cells[id]
		c.val = ag.inverse(c.val, col.vals[j])
		c.n--
		if c.n > 0 {
			continue
		}
		// Swap-remove from the slot's live list.
		l := ag.live[slot]
		last := l[len(l)-1]
		l[c.pos] = last
		ag.cells[last].pos = c.pos
		ag.live[slot] = l[:len(l)-1]
	}
}

// dropLive retires every live cell of one slot, keeping the list's
// capacity.
func (ag *Aggregator) dropLive(slot int) {
	for _, id := range ag.live[slot] {
		ag.cells[id].n = 0
	}
	ag.live[slot] = ag.live[slot][:0]
}

// liveKeys counts the live cells; the caller holds the lock.
func (ag *Aggregator) liveKeys() int {
	n := 0
	for s := range ag.live {
		n += len(ag.live[s])
	}
	return n
}

// Snapshot returns a copy of the current window answer.
func (ag *Aggregator) Snapshot() map[string]float64 {
	ag.mu.RLock()
	defer ag.mu.RUnlock()
	keys := ag.dict.Strings()
	out := make(map[string]float64, ag.liveKeys())
	for s := range ag.live {
		for _, id := range ag.live[s] {
			out[keys[id]] = ag.cells[id].val
		}
	}
	return out
}

// Value returns the current aggregate for one key.
func (ag *Aggregator) Value(key string) (float64, bool) {
	id, ok := ag.dict.Lookup(key)
	if !ok {
		return 0, false
	}
	ag.mu.RLock()
	defer ag.mu.RUnlock()
	if int(id) >= len(ag.cells) || ag.cells[id].n == 0 {
		return 0, false
	}
	return ag.cells[id].val, true
}

// Recompute returns the window answer computed from scratch over the
// retained batch outputs. Tests use it to verify that incremental
// maintenance with the inverse function matches full recomputation.
func (ag *Aggregator) Recompute() map[string]float64 {
	ag.mu.RLock()
	defer ag.mu.RUnlock()
	keys := ag.dict.Strings()
	out := make(map[string]float64)
	for _, b := range ag.batches {
		for s := range b.cols {
			col := &b.cols[s]
			for j, id := range col.ids {
				k, v := keys[id], col.vals[j]
				if cur, ok := out[k]; ok {
					out[k] = ag.reduce(cur, v)
				} else {
					out[k] = v
				}
			}
		}
	}
	return out
}

// Entry is one (key, value) pair of a window answer.
type Entry struct {
	Key string
	Val float64
}

// ranked is a TopK candidate: a live cell's value and ID.
type ranked struct {
	val float64
	id  uint32
}

// TopK returns the k largest entries of the current window answer, ordered
// by value descending with key ascending as tie-break (the TopKCount
// workload of the evaluation); k <= 0 yields none. It keeps a bounded
// min-heap of the k best cells seen so far — O(live · log k) with no copy
// of the state — and resolves key strings only to break value ties and
// for the k results.
func (ag *Aggregator) TopK(k int) []Entry {
	if k <= 0 {
		return []Entry{}
	}
	ag.mu.RLock()
	defer ag.mu.RUnlock()
	keys := ag.dict.Strings()
	// before reports whether a ranks strictly ahead of b.
	before := func(a, b ranked) bool {
		if c := CompareValDesc(a.val, b.val); c != 0 {
			return c < 0
		}
		return keys[a.id] < keys[b.id]
	}
	// Once k candidates are in, heap is a heap with the worst-ranked one
	// kept at heap[0]; a better candidate replaces it and sinks.
	heap := make([]ranked, 0, min(k, ag.liveKeys()))
	sink := func(i int) {
		for {
			worst := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(heap) && before(heap[worst], heap[c]) {
					worst = c
				}
			}
			if worst == i {
				return
			}
			heap[i], heap[worst] = heap[worst], heap[i]
			i = worst
		}
	}
	for s := range ag.live {
		for _, id := range ag.live[s] {
			r := ranked{val: ag.cells[id].val, id: id}
			switch {
			case len(heap) < k:
				if heap = append(heap, r); len(heap) == k {
					for i := k/2 - 1; i >= 0; i-- {
						sink(i)
					}
				}
			case r.val < heap[0].val:
				// The common case, settled without the total order's NaN
				// and tie handling.
			case before(r, heap[0]):
				heap[0] = r
				sink(0)
			}
		}
	}
	out := make([]Entry, len(heap))
	for i, r := range heap {
		out[i] = Entry{Key: keys[r.id], Val: r.val}
	}
	slices.SortFunc(out, func(a, b Entry) int {
		if c := CompareValDesc(a.Val, b.Val); c != 0 {
			return c
		}
		return strings.Compare(a.Key, b.Key)
	})
	return out
}

// CompareValDesc orders window values descending under a total order:
// NaN sorts after every number and equal to other NaNs (letting the key
// tie-break apply), so a reduce that ever emits NaN cannot make the
// ranking depend on map iteration order. A bare != / cmp.Compare pair is
// not total here — NaN != NaN while cmp.Compare(NaN, NaN) == 0, which
// skips the tie-break and leaves NaN entries in arrival order.
func CompareValDesc(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	return cmp.Compare(b, a)
}
