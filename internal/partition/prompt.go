package partition

import (
	"slices"

	"prompt/internal/tuple"
)

// Prompt implements Algorithm 2 (Micro-Batch Partitioner), the paper's
// heuristic for the Balanced Bin Packing with Fragmentable Items (B-BPFI)
// problem. It consumes the quasi-sorted key list produced by the
// frequency-aware accumulator and assigns keys to P blocks in two passes:
//
//  1. High-frequency keys are detected with the split cut-off
//     S_Cut = P_Size / P_|k| and fragmented: fragments of size
//     F = max(S_Cut, P_Size/8) peel off round-robin across the blocks
//     while a key's remainder exceeds F, and the final sub-F residual
//     rejoins the sorted remainder list. Same-key fragments landing on the
//     same block merge, so a key splits over at most min(ceil(s/F), P)
//     blocks. The F floor keeps every fragment (and thus every non-split
//     key) well below a Reduce bucket: the heavy keys every Map task must
//     know about get spread across all blocks — making the block reference
//     tables a globally consistent picture of the hot keys — while
//     moderately frequent keys stay whole (Objective 3, key locality).
//  2. The remaining keys (residuals included) are dealt one per block per
//     pass in zigzag style: each pass visits blocks in ascending current-
//     load order, a block more than one key-size above the running average
//     sits the pass out, and the descending key order makes this the
//     Best-Fit-Decreasing effect without a priority structure (Objectives
//     1 and 2: size equality and cardinality balance).
//
// The published pseudocode parks residuals in an RList and Best-Fits them
// after the zigzag, preferring the home block recorded by lookupLargePos;
// re-inserting residuals into the zigzag stream realizes the same
// key-locality preference (a residual dealt onto a block already holding
// one of its fragments merges with it) with less bookkeeping, and
// reproduces the Figure 6c assignment quality on the paper's example.
//
// The implementation is allocation-light by design: keys are addressed by
// their index in the sorted list and every fragment references the
// already-buffered tuple lists, so partitioning copies no tuple data, and
// all working state (items, per-block fragment lists, dealing order) comes
// from a pooled scratch arena reused across batches. These properties keep
// the measured overhead inside the early-batch-release slack (Figure 14b).
type Prompt struct {
	// FragDivisor sets the fragment-size floor F = P_Size/FragDivisor.
	// 0 means the default of 8.
	FragDivisor int
	// ReversalOnly switches pass 2 to the published zigzag (reverse the
	// block order after every pass, no load tracking) instead of the
	// load-aware dealing. Exposed for the ablation benchmarks.
	ReversalOnly bool
}

// NewPrompt returns Prompt's micro-batch partitioner with the defaults
// used throughout the evaluation.
func NewPrompt() *Prompt { return &Prompt{} }

// Name implements Partitioner.
func (pr *Prompt) Name() string {
	if pr.ReversalOnly {
		return "prompt-reversal"
	}
	return "prompt"
}

// Partition implements Partitioner.
func (pr *Prompt) Partition(in Input, p int) ([]*tuple.Block, error) {
	b, err := packBuilder(in, p)
	if err != nil {
		return nil, err
	}
	defer b.release()
	items := b.items
	total := 0
	for i := range items {
		total += items[i].size
	}
	k := len(items)
	if k == 0 {
		return b.build(in.Blocks), nil
	}

	// Partition size, partition cardinality, the key-split cut-off, and
	// the fragment size.
	pSize := capacity(total, p)
	pCard := k / p
	if pCard < 1 {
		pCard = 1
	}
	sCut := pSize / pCard
	if sCut < 1 {
		sCut = 1
	}
	div := pr.FragDivisor
	if div <= 0 {
		div = 8
	}
	frag := pSize / div
	if frag < sCut {
		frag = sCut
	}

	// Pass 1: slice the high-frequency keys into F-sized fragments,
	// round-robin across blocks; sub-F residuals rejoin the remainder.
	next := 0
	pos := 0
	for next < k && items[next].size > frag {
		it := &items[next]
		rest := it.cols
		restW := it.size
		for restW > frag {
			piece, remainder, fw := splitCols(rest, frag)
			b.place(pos, next, piece, fw)
			pos = (pos + 1) % p
			rest, restW = remainder, restW-fw
		}
		if restW > 0 {
			b.residuals = append(b.residuals, fragItem{item: next, cols: rest, w: restW})
		}
		next++
	}
	rest := b.mergeRemainder(next)

	// Pass 2: deal the remaining keys (and residuals), descending.
	order := b.order
	sortByLoad := func() {
		slices.SortStableFunc(order, func(x, y int) int {
			return b.weight[x] - b.weight[y]
		})
	}
	if pr.ReversalOnly {
		// The published zigzag: reverse the visit order after each full
		// pass, never consulting block loads.
		sortByLoad()
		pos = 0
		for i := range rest {
			b.place(order[pos], rest[i].item, rest[i].cols, rest[i].w)
			pos++
			if pos == p {
				pos = 0
				reverse(order)
			}
		}
		return b.build(in.Blocks), nil
	}
	placed := 0
	for _, w := range b.weight {
		placed += w
	}
	i := 0
	for i < len(rest) {
		// One pass: each block takes one key, lightest block first. A
		// block already more than one key-size above the running average
		// sits the pass out, so the fragment-granularity deltas pass 1
		// leaves close within a pass or two (the head of the remainder
		// holds the largest keys) at a cardinality cost of at most a few
		// skipped rounds.
		sortByLoad()
		avg := placed / p
		for pos = 0; pos < p && i < len(rest); pos++ {
			fr := rest[i]
			if pos > 0 && b.weight[order[pos]] > avg+fr.w {
				continue
			}
			b.place(order[pos], fr.item, fr.cols, fr.w)
			placed += fr.w
			i++
		}
	}

	return b.build(in.Blocks), nil
}

// mergeRemainder merges the unsliced tail of items (already descending by
// size) with the residual fragments into one descending list, built in the
// builder's reused rest buffer.
func (b *builder) mergeRemainder(next int) []fragItem {
	tail := b.items[next:]
	residuals := b.residuals
	if len(residuals) > 1 {
		slices.SortFunc(residuals, func(a, c fragItem) int {
			if a.w != c.w {
				return c.w - a.w
			}
			return a.item - c.item
		})
	}
	out := b.rest
	i, j := 0, 0
	for i < len(tail) && j < len(residuals) {
		if tail[i].size >= residuals[j].w {
			out = append(out, fragItem{item: next + i, cols: tail[i].cols, w: tail[i].size})
			i++
		} else {
			out = append(out, residuals[j])
			j++
		}
	}
	for ; i < len(tail); i++ {
		out = append(out, fragItem{item: next + i, cols: tail[i].cols, w: tail[i].size})
	}
	out = append(out, residuals[j:]...)
	b.rest = out
	return out
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
