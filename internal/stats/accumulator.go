package stats

import (
	"fmt"
	"slices"
	"strings"

	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// AccumulatorConfig tunes the frequency-aware buffering mechanism.
type AccumulatorConfig struct {
	// Budget is the maximum number of CountTree updates allowed per key per
	// batch interval (the paper's "update allowance").
	Budget int
	// EstimatedTuples (N_Est) is the expected number of tuples per batch
	// given the recent data rate; it seeds the initial frequency step.
	EstimatedTuples int
	// EstimatedKeys (K_Avg) is the average number of distinct keys over the
	// past few batches; with EstimatedTuples it sets the initial f.step
	// f = N_Est / (K_Avg * Budget), i.e. the best step under a uniform
	// distribution assumption.
	EstimatedKeys int
}

// DefaultAccumulatorConfig returns the configuration used throughout the
// evaluation: an update budget of 8 per key and neutral estimates that are
// refined after the first batch.
func DefaultAccumulatorConfig() AccumulatorConfig {
	return AccumulatorConfig{Budget: 8, EstimatedTuples: 100000, EstimatedKeys: 1000}
}

func (c AccumulatorConfig) validate() error {
	if c.Budget < 1 {
		return fmt.Errorf("stats: budget must be >= 1, got %d", c.Budget)
	}
	if c.EstimatedTuples < 1 || c.EstimatedKeys < 1 {
		return fmt.Errorf("stats: estimates must be >= 1, got N=%d K=%d",
			c.EstimatedTuples, c.EstimatedKeys)
	}
	return nil
}

// initialFStep computes the uniform-distribution frequency step
// f = N_Est / (K_Avg * Budget), floored at 1.
func (c AccumulatorConfig) initialFStep() int {
	f := c.EstimatedTuples / (c.EstimatedKeys * c.Budget)
	if f < 1 {
		f = 1
	}
	return f
}

// SortedKey is one element of the accumulator's output: a key with its
// exact frequency and its buffered tuples as column views. The slice handed
// to the partitioner is ordered by the CountTree (descending,
// quasi-sorted).
type SortedKey struct {
	Key   string
	Count int
	Cols  tuple.ColSlice
}

// BatchStats summarizes one accumulated batch: the statistics Algorithm 4
// consumes to attribute load changes to data rate vs data distribution.
type BatchStats struct {
	Tuples      int // N_C: number of data tuples
	Keys        int // |K|: number of distinct keys
	TreeUpdates int // CountTree node moves performed (cost accounting)
	Start, End  tuple.Time
}

// Accumulator implements Algorithm 1 (Micro-batch Accumulator): it buffers
// incoming tuples into the HTable and maintains the quasi-sorted CountTree
// under the budgeted f.step / t.step update discipline, so that at the
// heartbeat the batch is already key-sorted and ready for partitioning.
//
// An Accumulator is not safe for concurrent use; the receiver owns it.
//
// Keys are addressed by their IDs in an intern dictionary, and the fold
// runs over columns: AddColumns walks a ColumnBatch, and Add is the same
// fold for one row whose key it interns first. The HTable's entry arena
// and per-key column buffers, and Finalize's output slice, are reused
// across Resets, so steady-state ingestion allocates nothing. The hand-off
// therefore aliases buffers that the next Reset reclaims, which is safe in
// the engine because a batch is fully processed and reported before the
// next one accumulates; callers that retain Finalize output across batch
// intervals must use a fresh accumulator per batch.
type Accumulator struct {
	cfg   AccumulatorConfig
	dict  *intern.Dict
	ht    *HTable
	ct    *CountTree
	start tuple.Time
	end   tuple.Time

	nTuples     int
	treeUpdates int
	initialF    int
	out         []SortedKey // Finalize output, reused across batches
}

// NewAccumulator returns an accumulator for the batch interval
// [start, end) over a private intern dictionary. It returns an error for
// invalid configurations.
func NewAccumulator(cfg AccumulatorConfig, start, end tuple.Time) (*Accumulator, error) {
	return NewAccumulatorDict(cfg, intern.NewDict(0), start, end)
}

// NewAccumulatorDict returns an accumulator over the given intern
// dictionary, which may be shared (e.g. the engine's, checkpoint-restored)
// and must be the one that interned the IDs AddColumns receives.
func NewAccumulatorDict(cfg AccumulatorConfig, dict *intern.Dict, start, end tuple.Time) (*Accumulator, error) {
	if dict == nil {
		return nil, fmt.Errorf("stats: nil intern dictionary")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if end <= start {
		return nil, fmt.Errorf("stats: batch interval [%v,%v) is empty", start, end)
	}
	return &Accumulator{
		cfg:      cfg,
		dict:     dict,
		ht:       NewHTableDict(dict, cfg.EstimatedKeys),
		ct:       &CountTree{},
		start:    start,
		end:      end,
		initialF: cfg.initialFStep(),
	}, nil
}

// Reset prepares the accumulator for the next batch interval, clearing the
// HTable and CountTree as the paper prescribes at every heartbeat. Updated
// estimates may be supplied so f.step starts close to its converged value.
func (a *Accumulator) Reset(cfg AccumulatorConfig, start, end tuple.Time) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if end <= start {
		return fmt.Errorf("stats: batch interval [%v,%v) is empty", start, end)
	}
	a.cfg = cfg
	a.ht.Reset()
	a.ct.Reset()
	a.start, a.end = start, end
	a.nTuples = 0
	a.treeUpdates = 0
	a.initialF = cfg.initialFStep()
	return nil
}

// Interval returns the accumulator's batch interval.
func (a *Accumulator) Interval() (start, end tuple.Time) { return a.start, a.end }

// Tuples returns the number of tuples received so far (N_C).
func (a *Accumulator) Tuples() int { return a.nTuples }

// Keys returns the number of distinct keys received so far (|K|).
func (a *Accumulator) Keys() int { return a.ht.Len() }

// TreeUpdates returns the number of CountTree node moves so far; tests use
// it to verify the budget bounds the total update work.
func (a *Accumulator) TreeUpdates() int { return a.treeUpdates }

// Add ingests one tuple at arrival time now: it interns the key and runs
// the column fold for that one row. Tuples outside the batch interval, or
// whose weight does not fit the weight column, are rejected with an error.
func (a *Accumulator) Add(t tuple.Tuple, now tuple.Time) error {
	if err := tuple.CheckWeight(t.Weight); err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	return a.fold(a.dict.Intern(t.Key), t.TS, now, t.Val, int32(t.Weight))
}

// AddColumns ingests a whole ColumnBatch in row order, each row arriving
// at its own timestamp. The batch's IDs must have been interned in the
// accumulator's dictionary.
func (a *Accumulator) AddColumns(cb *tuple.ColumnBatch) error {
	for i, id := range cb.IDs {
		ts := cb.TS[i]
		if err := a.fold(id, ts, ts, cb.Vals[i], cb.W[i]); err != nil {
			return err
		}
	}
	return nil
}

// fold is Algorithm 1's per-arrival step: buffer the row under its key and
// decide whether the key's CountTree node is eligible for an update.
func (a *Accumulator) fold(id uint32, ts, now tuple.Time, val float64, w int32) error {
	if ts < a.start || ts >= a.end {
		return fmt.Errorf("stats: tuple ts %v outside batch interval [%v,%v)", ts, a.start, a.end)
	}
	a.nTuples++
	e := a.ht.GetID(id)
	if e == nil {
		// First sighting: resolve the key string once, for the HTable entry
		// and the CountTree node.
		e = a.ht.PutID(id, a.dict.Resolve(id))
		e.Cols = e.Cols.Append(ts, val, w)
		a.initEntry(e, now)
		return nil
	}
	e.Cols = e.Cols.Append(ts, val, w)
	a.bump(e, now)
	return nil
}

// bump counts one more arrival of an existing key at time now and decides
// whether its CountTree node is eligible for an update — the budgeted
// f.step / t.step discipline.
func (a *Accumulator) bump(e *KeyEntry, now tuple.Time) {
	e.FreqCurrent++
	deltaFreq := e.FreqCurrent - e.FreqUpdated
	deltaTime := now - e.LastUpdate

	switch {
	case e.Budget > 0 && deltaFreq >= e.FStep:
		// Frequency step fired: move the node to the exact current count
		// and re-estimate f.step proportionally to the key's share of the
		// batch so far (hot keys need more tuples per update).
		a.updateNode(e, now)
		fstep := (a.cfg.EstimatedTuples / a.cfg.Budget) * e.FreqCurrent / a.nTuples
		if fstep < 1 {
			fstep = 1
		}
		e.FStep = fstep
	case e.Budget > 0 && deltaTime >= e.TStep:
		// Time step fired: refresh cold keys so their counts do not go
		// stale, spreading the remaining budget over the remaining time.
		a.updateNode(e, now)
		remaining := a.end - now
		if remaining < 0 {
			remaining = 0
		}
		e.TStep = remaining / tuple.Time(e.Budget+1)
	default:
		// Key not eligible for an update yet.
	}
}

// initEntry seeds the budget statistics of a first-sighting entry whose
// first tuple the caller already buffered (Algorithm 1's insert arm), and
// registers the key in the CountTree with count 1.
func (a *Accumulator) initEntry(e *KeyEntry, now tuple.Time) {
	e.FreqCurrent = 1
	e.FreqUpdated = 1
	e.Budget = a.cfg.Budget
	e.FStep = a.initialF
	e.TStep = (a.end - now) / tuple.Time(a.cfg.Budget)
	e.LastUpdate = now
	a.ct.Insert(e.Key, 1)
}

// updateNode moves the key's CountTree node from its stale count to the
// exact current count and charges the key's budget.
func (a *Accumulator) updateNode(e *KeyEntry, now tuple.Time) {
	a.ct.Update(e.Key, e.FreqUpdated, e.FreqCurrent)
	e.FreqUpdated = e.FreqCurrent
	e.Budget--
	e.LastUpdate = now
	a.treeUpdates++
}

// Finalize produces the quasi-sorted key list ⟨k, count, tupleList⟩ for the
// partitioner plus the batch statistics, at the heartbeat (or at the early
// batch release cut-off). Counts in the output are exact (taken from the
// HTable); the ordering is the CountTree's quasi-sorted descending order.
//
// The returned slice is owned by the accumulator and valid until the next
// Reset.
func (a *Accumulator) Finalize() ([]SortedKey, BatchStats) {
	out := a.out[:0]
	if cap(out) < a.ht.Len() {
		out = make([]SortedKey, 0, a.ht.Len())
	}
	a.ct.WalkDescending(func(key string, count int) {
		e := a.ht.Get(key)
		if e == nil {
			return // unreachable: tree and table are kept in sync
		}
		out = append(out, SortedKey{Key: e.Key, Count: e.FreqCurrent, Cols: e.Cols})
	})
	a.out = out
	st := BatchStats{
		Tuples:      a.nTuples,
		Keys:        a.ht.Len(),
		TreeUpdates: a.treeUpdates,
		Start:       a.start,
		End:         a.end,
	}
	return out, st
}

// PostSort is the baseline the paper compares against in Figure 14a: buffer
// tuples with no online statistics and sort the keys by exact frequency
// after the batch interval ends. It returns the same output shape as
// Finalize so the two can be swapped in the engine. The rows are
// transposed once over a private dictionary, so a weight that does not fit
// the weight column is an error.
func PostSort(b *tuple.Batch) ([]SortedKey, error) {
	dict := intern.NewDict(0)
	cb := &tuple.ColumnBatch{Start: b.Start, End: b.End}
	if err := cb.AppendRows(b.Tuples, dict.Intern); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return NewPostSorter(dict).Sort(cb), nil
}

// SortKeysDesc sorts keys by count descending with the key string as
// ascending tie-break, the canonical order the partitioner expects.
func SortKeysDesc(s []SortedKey) {
	slices.SortFunc(s, func(a, b SortedKey) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		return strings.Compare(a.Key, b.Key)
	})
}
