package partition

import "prompt/internal/tuple"

// Shuffle implements round-robin partitioning (§2.2.2): tuples are assigned
// to blocks by arrival order without regard to keys. Block sizes are equal
// to within one tuple even under variable rates, but key locality is
// sacrificed entirely — a key lands in up to min(freq, p) blocks.
type Shuffle struct{}

// NewShuffle returns the shuffle (round-robin) partitioner.
func NewShuffle() *Shuffle { return &Shuffle{} }

// Name implements Partitioner.
func (*Shuffle) Name() string { return "shuffle" }

// Partition implements Partitioner.
func (s *Shuffle) Partition(in Input, p int) ([]*tuple.Block, error) {
	b, err := newPerTupleBuilder(in, p)
	if err != nil {
		return nil, err
	}
	for row := range b.cb.IDs {
		k, _ := b.key(row)
		b.add(row%p, k, row)
	}
	return b.build(), nil
}
