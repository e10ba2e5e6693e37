package partition

import "prompt/internal/tuple"

// This file holds the two classical bin-packing heuristics the paper
// contrasts with Algorithm 2 in Figure 6: First-Fit-Decreasing adapted to
// fragmentable items [Johnson et al. '74, Menakerman & Rom '01], and the
// fragmentation-minimization strategy [LeCun et al. '15]. Both treat each
// key as an item of size equal to its tuple weight and each data block as
// a bin of capacity ceil(N/P). They achieve perfect size balance but fail
// one of the other two objectives — FFD over-fragments, FragMin piles many
// small keys into few bins (cardinality imbalance) — which motivates
// Prompt's heuristic.

// capacity returns the bin capacity ceil(total/p).
func capacity(total, p int) int {
	c := total / p
	if total%p != 0 {
		c++
	}
	return c
}

// FirstFitDecreasing packs keys in descending size order into the first bin
// with remaining capacity, fragmenting an item whenever it crosses a bin
// boundary. Bins fill up one after another, so every boundary key splits.
type FirstFitDecreasing struct{}

// NewFirstFitDecreasing returns the FFD partitioner.
func NewFirstFitDecreasing() *FirstFitDecreasing { return &FirstFitDecreasing{} }

// Name implements Partitioner.
func (*FirstFitDecreasing) Name() string { return "ffd" }

// Partition implements Partitioner.
func (f *FirstFitDecreasing) Partition(in Input, p int) ([]*tuple.Block, error) {
	if err := checkArgs(in, p); err != nil {
		return nil, err
	}
	items, err := in.items()
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range items {
		total += items[i].size
	}
	cap := capacity(total, p)
	a := newAssignment(p)
	for _, it := range items {
		rest := it.cols
		restW := it.size
		for restW > 0 {
			// First bin with spare capacity.
			bin := -1
			for j := 0; j < p; j++ {
				if a.weightOf(j) < cap {
					bin = j
					break
				}
			}
			if bin == -1 {
				// All bins at capacity (rounding): spill into the lightest.
				bin = lightest(a)
			}
			room := cap - a.weightOf(bin)
			if room <= 0 || room >= restW {
				a.place(bin, it.key, it.id, rest, restW)
				restW = 0
			} else {
				frag, remainder, fw := splitCols(rest, room)
				a.place(bin, it.key, it.id, frag, fw)
				rest, restW = remainder, restW-fw
			}
		}
	}
	return a.build(in.Blocks), nil
}

// FragMin packs keys in descending size order, placing each item whole into
// the tightest bin that can hold it (best fit) and fragmenting only when no
// bin has room for the whole item — in which case the emptiest bin is
// filled and the residual carries on. This minimizes the number of split
// keys at the cost of cardinality imbalance: the tail of small keys ends up
// concentrated in whichever bins retain space.
type FragMin struct{}

// NewFragMin returns the fragmentation-minimization partitioner.
func NewFragMin() *FragMin { return &FragMin{} }

// Name implements Partitioner.
func (*FragMin) Name() string { return "fragmin" }

// Partition implements Partitioner.
func (f *FragMin) Partition(in Input, p int) ([]*tuple.Block, error) {
	if err := checkArgs(in, p); err != nil {
		return nil, err
	}
	items, err := in.items()
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range items {
		total += items[i].size
	}
	cap := capacity(total, p)
	a := newAssignment(p)
	for _, it := range items {
		rest := it.cols
		restW := it.size
		for restW > 0 {
			// Best fit: tightest bin that holds the whole residual.
			bin, room := -1, 0
			for j := 0; j < p; j++ {
				r := cap - a.weightOf(j)
				if r >= restW && (bin == -1 || r < room) {
					bin, room = j, r
				}
			}
			if bin >= 0 {
				a.place(bin, it.key, it.id, rest, restW)
				restW = 0
				continue
			}
			// No bin fits the whole item: fill the emptiest bin.
			bin = lightest(a)
			room = cap - a.weightOf(bin)
			if room <= 0 {
				// Rounding corner case: place the rest in the lightest bin.
				a.place(bin, it.key, it.id, rest, restW)
				restW = 0
				continue
			}
			frag, remainder, fw := splitCols(rest, room)
			a.place(bin, it.key, it.id, frag, fw)
			rest, restW = remainder, restW-fw
		}
	}
	return a.build(in.Blocks), nil
}

// lightest returns the index of the bin with the least weight.
func lightest(a *assignment) int {
	best, bestW := 0, a.weightOf(0)
	for j := 1; j < a.p; j++ {
		if w := a.weightOf(j); w < bestW {
			best, bestW = j, w
		}
	}
	return best
}
