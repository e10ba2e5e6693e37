// Package stats implements the frequency-aware buffering mechanism of the
// batching phase (Algorithm 1 of the paper): a hash table of per-key tuple
// lists whose approximate key frequencies are published under a per-key
// update budget, so that the total bookkeeping is bounded by Budget
// publications per key, and which hands the partitioner the keys in the
// paper's quasi-sorted order (by published frequency) at the heartbeat.
package stats

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// AccumulatorConfig tunes the frequency-aware buffering mechanism.
type AccumulatorConfig struct {
	// Budget is the paper's "update allowance": the maximum number of
	// frequency publications (CountTree updates in the paper) allowed per
	// key per batch interval.
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

// SortedKey is one element of the accumulator's output: a key, its
// dictionary ID, its exact frequency and its buffered tuples as column
// views. The slice handed to the partitioner is quasi-sorted: descending by
// the key's last published frequency, not its exact one (see
// Accumulator.Finalize).
type SortedKey struct {
	Key   string
	ID    uint32
	Count int
	Cols  tuple.ColSlice
}

// BatchStats summarizes one accumulated batch: the statistics Algorithm 4
// consumes to attribute load changes to data rate vs data distribution.
type BatchStats struct {
	Tuples      int // N_C: number of data tuples
	Keys        int // |K|: number of distinct keys
	TreeUpdates int // budgeted frequency publications (the paper's CountTree updates)
	Start, End  tuple.Time
}

// Accumulator implements Algorithm 1 (Micro-batch Accumulator): it buffers
// incoming tuples into the HTable and publishes each key's frequency under
// the budgeted f.step / t.step update discipline; at the heartbeat it
// hands the partitioner the keys in quasi-sorted order.
//
// The paper keeps the published frequencies in a balanced tree (the
// CountTree) updated online, so that the order is ready the moment the
// interval ends. Here a batch arrives whole and is folded on one
// goroutine, so online upkeep hides nothing; the order the tree would
// yield is a pure function of the final (published frequency, key)
// pairs, and Finalize computes exactly that order with one sort.
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
	strs  []string // dict.Strings() view, refreshed when an ID outgrows it
	ht    *HTable
	start tuple.Time
	end   tuple.Time

	nTuples      int
	treeUpdates  int
	initialF     int
	ranks, spare []rank      // Finalize sort buffers, reused across batches
	out          []SortedKey // Finalize output, reused across batches
}

// rank is one key's Finalize sort key, complemented so that ascending is
// the order Finalize wants: its published frequency, the first eight
// bytes of its string, and its HTable arena index.
type rank struct {
	freq   uint64 // ^FreqUpdated
	prefix uint64 // ^keyPrefix(Key)
	idx    int32
}

// digit returns byte d of the rank's sort key, d = 0 the least
// significant: bytes 0–7 are the prefix's, 8–15 the frequency's.
func (r *rank) digit(d int) uint8 {
	if d < 8 {
		return uint8(r.prefix >> (8 * d))
	}
	return uint8(r.freq >> (8 * (d - 8)))
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
		start:    start,
		end:      end,
		initialF: cfg.initialFStep(),
	}, nil
}

// Reset prepares the accumulator for the next batch interval, clearing the
// HTable as the paper prescribes at every heartbeat. Updated estimates may
// be supplied so f.step starts close to its converged value.
func (a *Accumulator) Reset(cfg AccumulatorConfig, start, end tuple.Time) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if end <= start {
		return fmt.Errorf("stats: batch interval [%v,%v) is empty", start, end)
	}
	a.cfg = cfg
	a.ht.Reset()
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

// TreeUpdates returns the number of budgeted frequency publications so
// far, the paper's CountTree updates; tests use it to verify the budget
// bounds the total update work.
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
// decide whether the key's frequency is due for a publication.
func (a *Accumulator) fold(id uint32, ts, now tuple.Time, val float64, w int32) error {
	if ts < a.start || ts >= a.end {
		return fmt.Errorf("stats: tuple ts %v outside batch interval [%v,%v)", ts, a.start, a.end)
	}
	a.nTuples++
	e := a.ht.GetID(id)
	if e == nil {
		// First sighting: resolve the key string once, through the cached
		// view of the append-only dictionary (one lock per growth of the
		// dictionary, not one per key).
		if int(id) >= len(a.strs) {
			a.strs = a.dict.Strings()
		}
		e = a.ht.PutID(id, a.strs[id])
		e.Cols = e.Cols.Append(ts, val, w)
		a.initEntry(e, now)
		return nil
	}
	e.Cols = e.Cols.Append(ts, val, w)
	a.bump(e, now)
	return nil
}

// bump counts one more arrival of an existing key at time now and decides
// whether its frequency is due for a publication — the budgeted f.step /
// t.step discipline.
func (a *Accumulator) bump(e *KeyEntry, now tuple.Time) {
	e.FreqCurrent++
	deltaFreq := e.FreqCurrent - e.FreqUpdated
	deltaTime := now - e.LastUpdate

	switch {
	case e.Budget > 0 && deltaFreq >= e.FStep:
		// Frequency step fired: publish the exact current count and
		// re-estimate f.step proportionally to the key's share of the
		// batch so far (hot keys need more tuples per update).
		a.publish(e, now)
		fstep := (a.cfg.EstimatedTuples / a.cfg.Budget) * e.FreqCurrent / a.nTuples
		if fstep < 1 {
			fstep = 1
		}
		e.FStep = fstep
	case e.Budget > 0 && deltaTime >= e.TStep:
		// Time step fired: refresh cold keys so their counts do not go
		// stale, spreading the remaining budget over the remaining time.
		a.publish(e, now)
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
// first tuple the caller already buffered (Algorithm 1's insert arm),
// publishing count 1.
func (a *Accumulator) initEntry(e *KeyEntry, now tuple.Time) {
	e.FreqCurrent = 1
	e.FreqUpdated = 1
	e.Budget = a.cfg.Budget
	e.FStep = a.initialF
	e.TStep = (a.end - now) / tuple.Time(a.cfg.Budget)
	e.LastUpdate = now
}

// publish makes the key's exact current count the one Finalize orders it
// by, and charges the key's budget: the paper's CountTree update.
func (a *Accumulator) publish(e *KeyEntry, now tuple.Time) {
	e.FreqUpdated = e.FreqCurrent
	e.Budget--
	e.LastUpdate = now
	a.treeUpdates++
}

// Finalize produces the quasi-sorted key list ⟨k, count, tupleList⟩ for the
// partitioner plus the batch statistics, at the heartbeat (or at the early
// batch release cut-off). Counts in the output are exact; the order is by
// published frequency (FreqUpdated) descending, then key descending — the
// reverse in-order walk of the paper's CountTree over the same (count,
// key) pairs. The tie-break is the reverse of SortKeysDesc's.
//
// The returned slice is owned by the accumulator and valid until the next
// Reset.
func (a *Accumulator) Finalize() ([]SortedKey, BatchStats) {
	entries := a.ht.entries
	ranks := a.ranks[:0]
	for i := range entries {
		e := &entries[i]
		ranks = append(ranks, rank{freq: ^uint64(e.FreqUpdated), prefix: ^e.prefix, idx: int32(i)})
	}
	a.ranks = ranks
	ranks = a.sortRanks()
	out := a.out[:0]
	for _, r := range ranks {
		e := &entries[r.idx]
		out = append(out, SortedKey{Key: e.Key, ID: e.ID, Count: e.FreqCurrent, Cols: e.Cols})
	}
	a.out = out
	st := BatchStats{
		Tuples:      a.nTuples,
		Keys:        len(entries),
		TreeUpdates: a.treeUpdates,
		Start:       a.start,
		End:         a.end,
	}
	return out, st
}

// sortRanks sorts a.ranks ascending — published frequency descending,
// then key descending — and returns them, in either of its two buffers.
func (a *Accumulator) sortRanks() []rank {
	n := len(a.ranks)
	if cap(a.spare) < n {
		a.spare = make([]rank, n)
	}
	sorted, spare := radixSort(a.ranks, a.spare[:n])
	a.breakTies(sorted, spare, 8)
	a.ranks, a.spare = sorted, spare
	return sorted
}

// breakTies orders each run of ranks that agree on (freq, prefix) by the
// next eight bytes of their keys, from byte off on, recursing until the
// keys differ. Keys still tied when all are exhausted differ only in
// trailing NUL bytes, and the longer is the greater.
func (a *Accumulator) breakTies(ranks, spare []rank, off int) {
	entries := a.ht.entries
	for i := 0; i < len(ranks); {
		j := i + 1
		for j < len(ranks) && ranks[j].freq == ranks[i].freq && ranks[j].prefix == ranks[i].prefix {
			j++
		}
		run := ranks[i:j]
		i = j
		if len(run) < 2 {
			continue
		}
		longest := 0
		for k := range run {
			key := entries[run[k].idx].Key
			longest = max(longest, len(key))
			run[k].prefix = ^keyPrefix(key[min(off, len(key)):])
		}
		if longest <= off {
			slices.SortFunc(run, func(x, y rank) int {
				return len(entries[y.idx].Key) - len(entries[x.idx].Key)
			})
			continue
		}
		if sorted, _ := radixSort(run, spare[:len(run)]); &sorted[0] != &run[0] {
			copy(run, sorted)
		}
		a.breakTies(run, spare, off+8)
	}
}

// radixSort sorts ranks ascending by (freq, prefix) with an LSD radix
// sort: one stable counting pass per byte that not every rank shares
// (short keys' zero padding and a frequency's high bytes are skipped),
// scattering between ranks and tmp, a buffer of the same length. It
// returns the buffer holding the result first and the other second.
func radixSort(ranks, tmp []rank) (sorted, spare []rank) {
	andF, andP := ^uint64(0), ^uint64(0)
	var orF, orP uint64
	for i := range ranks {
		andF, orF = andF&ranks[i].freq, orF|ranks[i].freq
		andP, orP = andP&ranks[i].prefix, orP|ranks[i].prefix
	}
	varying := [2]uint64{andP ^ orP, andF ^ orF}
	var counts [256]int32
	for d := 0; d < 16; d++ {
		if uint8(varying[d/8]>>(8*(d%8))) == 0 {
			continue // every rank has the same byte here
		}
		clear(counts[:])
		for i := range ranks {
			counts[ranks[i].digit(d)]++
		}
		var sum int32
		for b := range counts {
			counts[b], sum = sum, sum+counts[b]
		}
		for i := range ranks {
			b := ranks[i].digit(d)
			tmp[counts[b]] = ranks[i]
			counts[b]++
		}
		ranks, tmp = tmp, ranks
	}
	return ranks, tmp
}

// keyPrefix is the first eight bytes of key, big-endian and zero-padded:
// prefixes in descending order are keys in descending order, and keys
// with equal prefixes need the full comparison.
func keyPrefix(key string) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
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
