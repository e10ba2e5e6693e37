package approx

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"prompt/internal/hashutil"
	"prompt/internal/window"
)

// --- Count-Min ------------------------------------------------------------

// CountMin is a depth × width Count-Min sketch over float64 mass. With
// non-negative values the estimate is one-sided: true ≤ Estimate(key) ≤
// true + (e/width)·Total with probability ≥ 1 − e^-depth per key. The
// sketch is linear — Merge adds and Sub subtracts cell-wise — which is
// what lets window partials combine and evict without touching raw keys.
type CountMin struct {
	depth, width int
	seed         uint64
	rows         [][]float64
	total        float64
}

// NewCountMin returns an empty sketch. Row i hashes with family seed+i.
func NewCountMin(depth, width int, seed uint64) *CountMin {
	rows := make([][]float64, depth)
	for i := range rows {
		rows[i] = make([]float64, width)
	}
	return &CountMin{depth: depth, width: width, seed: seed, rows: rows}
}

// Add folds val into the key's cell on every row.
func (c *CountMin) Add(key string, val float64) {
	for i := 0; i < c.depth; i++ {
		c.rows[i][hashutil.Seeded(key, c.seed+uint64(i))%uint64(c.width)] += val
	}
	c.total += val
}

// Estimate returns the minimum cell across rows — the classic point
// estimate.
func (c *CountMin) Estimate(key string) float64 {
	est := math.Inf(1)
	for i := 0; i < c.depth; i++ {
		if v := c.rows[i][hashutil.Seeded(key, c.seed+uint64(i))%uint64(c.width)]; v < est {
			est = v
		}
	}
	return est
}

// compatible rejects sketches from a different geometry or hash family.
func (c *CountMin) compatible(o *CountMin) error {
	if c.depth != o.depth || c.width != o.width || c.seed != o.seed {
		return fmt.Errorf("approx: merging countmin %dx%d seed %d with %dx%d seed %d",
			c.depth, c.width, c.seed, o.depth, o.width, o.seed)
	}
	return nil
}

// Merge adds o cell-wise.
func (c *CountMin) Merge(o *CountMin) error {
	if err := c.compatible(o); err != nil {
		return err
	}
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] += o.rows[i][j]
		}
	}
	c.total += o.total
	return nil
}

// Sub subtracts o cell-wise — the linearity that supports subtract-on-
// evict. Note that floating-point subtraction is not bit-stable for
// arbitrary values ((a+b)−a need not equal b), so the windowed Estimator
// rebuilds from retained partials instead; Sub remains exact for the
// integral masses the counting queries produce.
func (c *CountMin) Sub(o *CountMin) error {
	if err := c.compatible(o); err != nil {
		return err
	}
	for i := range c.rows {
		for j := range c.rows[i] {
			c.rows[i][j] -= o.rows[i][j]
		}
	}
	c.total -= o.total
	return nil
}

// Total is the summed mass the sketch has absorbed.
func (c *CountMin) Total() float64 { return c.total }

// ErrorBound is the advertised one-sided overestimation bound ε·N with
// ε = e/width and N the absorbed mass.
func (c *CountMin) ErrorBound() float64 { return math.E / float64(c.width) * c.total }

// Bytes approximates the in-memory footprint.
func (c *CountMin) Bytes() int { return c.depth*c.width*8 + 48 }

// --- Space-Saving ---------------------------------------------------------

// SSEntry is one tracked Space-Saving counter: Est overestimates the
// key's true mass by at most Err (est − err ≤ true ≤ est).
type SSEntry struct {
	Key      string
	Est, Err float64
}

// SpaceSaving is the k-counter Space-Saving summary. Offers beyond the
// budget evict the minimum counter and inherit its estimate as error;
// off bounds the true mass of every untracked key, which is what makes
// two summaries mergeable without access to the evicted keys.
type SpaceSaving struct {
	k      int
	counts map[string]*SSEntry
	off    float64
}

// NewSpaceSaving returns an empty summary with a k-counter budget.
func NewSpaceSaving(k int) *SpaceSaving {
	return &SpaceSaving{k: k, counts: make(map[string]*SSEntry)}
}

// K returns the counter budget.
func (s *SpaceSaving) K() int { return s.k }

// Offer folds one key observation. Eviction picks the minimum estimate
// (smallest key on ties) so the summary is independent of offer order
// only up to the documented canonical order — callers offer entries
// sorted by (value desc, key asc).
func (s *SpaceSaving) Offer(key string, val float64) {
	if e, ok := s.counts[key]; ok {
		e.Est += val
		return
	}
	if len(s.counts) < s.k {
		s.counts[key] = &SSEntry{Key: key, Est: val}
		return
	}
	var min *SSEntry
	for _, e := range s.counts {
		if min == nil || evictsBefore(e, min) {
			min = e
		}
	}
	if min.Est > s.off {
		s.off = min.Est
	}
	delete(s.counts, min.Key)
	s.counts[key] = &SSEntry{Key: key, Est: min.Est + val, Err: min.Est}
}

// evictsBefore reports whether a is a better eviction victim than b: the
// smaller estimate (NaN smallest of all), the smaller key on ties.
func evictsBefore(a, b *SSEntry) bool {
	if c := window.CompareValDesc(a.Est, b.Est); c != 0 {
		return c > 0
	}
	return a.Key < b.Key
}

// Offset bounds the true mass of any key the summary does not track.
func (s *SpaceSaving) Offset() float64 { return s.off }

// Entries returns the tracked counters sorted by estimate descending,
// key ascending — the canonical ranking order.
func (s *SpaceSaving) Entries() []SSEntry {
	out := make([]SSEntry, 0, len(s.counts))
	for _, e := range s.counts {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return ssLess(out[i].Key, out[i].Est, out[j].Key, out[j].Est) })
	return out
}

// Estimate returns the key's counter, or the untracked-key bound.
func (s *SpaceSaving) Estimate(key string) float64 {
	if e, ok := s.counts[key]; ok {
		return e.Est
	}
	return s.off
}

// MergeSpaceSaving combines two summaries into a new one with a's
// budget: union the counters (a key missing on one side contributes that
// side's offset to both estimate and error), keep the top k, and fold
// everything dropped into the offset. The per-entry guarantee
// est − err ≤ true ≤ est survives the merge.
func MergeSpaceSaving(a, b *SpaceSaving) *SpaceSaving {
	union := make(map[string]*SSEntry, len(a.counts)+len(b.counts))
	for _, src := range []*SpaceSaving{a, b} {
		for _, own := range src.counts {
			e, ok := union[own.Key]
			if !ok {
				e = &SSEntry{Key: own.Key}
				union[own.Key] = e
			}
			e.Est += own.Est
			e.Err += own.Err
		}
	}
	// Keys present on only one side absorb the other side's offset.
	for key, e := range union {
		if _, ok := a.counts[key]; !ok {
			e.Est += a.off
			e.Err += a.off
		}
		if _, ok := b.counts[key]; !ok {
			e.Est += b.off
			e.Err += b.off
		}
	}
	ranked := make([]*SSEntry, 0, len(union))
	for _, e := range union {
		ranked = append(ranked, e)
	}
	sort.Slice(ranked, func(i, j int) bool {
		return ssLess(ranked[i].Key, ranked[i].Est, ranked[j].Key, ranked[j].Est)
	})
	out := NewSpaceSaving(a.k)
	out.off = a.off + b.off
	for i, e := range ranked {
		if i >= a.k {
			// Every dropped estimate bounds its key's true mass and is
			// ≤ the minimum kept estimate, so folding the largest into
			// the offset keeps untracked keys covered.
			if e.Est > out.off {
				out.off = e.Est
			}
			break
		}
		out.counts[e.Key] = e
	}
	return out
}

// ErrorBound is the summary-level bound: the largest per-entry error or
// the untracked-key offset, whichever is larger.
func (s *SpaceSaving) ErrorBound() float64 {
	bound := s.off
	for _, e := range s.counts {
		if e.Err > bound {
			bound = e.Err
		}
	}
	return bound
}

// Bytes approximates the in-memory footprint.
func (s *SpaceSaving) Bytes() int {
	n := 64
	for k := range s.counts {
		n += len(k) + 48
	}
	return n
}

// --- HyperLogLog ----------------------------------------------------------

// HLL is a HyperLogLog distinct counter with 2^p registers. Merge takes
// the register-wise maximum, so any partition of the input merges to the
// same registers as one pass over the union.
type HLL struct {
	p    int
	seed uint64
	regs []uint8
}

// NewHLL returns an empty counter with 2^p registers.
func NewHLL(p int, seed uint64) *HLL {
	return &HLL{p: p, seed: seed, regs: make([]uint8, 1<<p)}
}

// Add observes one key.
func (h *HLL) Add(key string) {
	v := hashutil.Seeded(key, h.seed)
	idx := v >> (64 - uint(h.p))
	w := v << uint(h.p)
	rank := uint8(64 - h.p + 1)
	if w != 0 {
		rank = uint8(bits.LeadingZeros64(w) + 1)
	}
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// Merge takes the register-wise maximum.
func (h *HLL) Merge(o *HLL) error {
	if h.p != o.p || h.seed != o.seed {
		return fmt.Errorf("approx: merging hll p=%d seed %d with p=%d seed %d", h.p, h.seed, o.p, o.seed)
	}
	for i, r := range o.regs {
		if r > h.regs[i] {
			h.regs[i] = r
		}
	}
	return nil
}

// Estimate returns the distinct-count estimate with the linear-counting
// small-range correction.
func (h *HLL) Estimate() float64 {
	m := float64(int(1) << h.p)
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += math.Ldexp(1, -int(r))
		if r == 0 {
			zeros++
		}
	}
	raw := alpha(1<<h.p) * m * m / sum
	if raw <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return raw
}

// alpha is the standard HyperLogLog bias-correction constant.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// ErrorBound is the advertised three-sigma relative error
// 3 · 1.04/√m of the current estimate, floored at one key.
func (h *HLL) ErrorBound() float64 {
	bound := 3 * 1.04 / math.Sqrt(float64(int(1)<<h.p)) * h.Estimate()
	return math.Max(bound, 1)
}

// Bytes approximates the in-memory footprint.
func (h *HLL) Bytes() int { return len(h.regs) + 32 }

// ssLess is the canonical (value desc, key asc) ranking: the order a
// batch's exact result is offered to a Space-Saving partial in, and the
// order Entries, merges and the codec list counters in. Values compare
// under window.Aggregator.TopK's total order, NaN after every number and
// tied with other NaNs, so the key decides between them; a bare != / >
// pair is not total under NaN, and a ranking built on it followed map
// iteration order.
func ssLess(ki string, vi float64, kj string, vj float64) bool {
	if c := window.CompareValDesc(vi, vj); c != 0 {
		return c < 0
	}
	return ki < kj
}
