package partition

import (
	"prompt/internal/hashutil"
	"prompt/internal/tuple"
)

// Hash implements hash partitioning, a.k.a. key grouping (§2.2.3): the
// partitioning key is hashed to pick the block, so all tuples of a key are
// co-located (KSR = 1) and per-key aggregation at the Reduce stage needs no
// cross-block combining. Under skew, block sizes become highly unequal.
type Hash struct{}

// NewHash returns the hash partitioner.
func NewHash() *Hash { return &Hash{} }

// Name implements Partitioner.
func (*Hash) Name() string { return "hash" }

// Partition implements Partitioner.
func (h *Hash) Partition(in Input, p int) ([]*tuple.Block, error) {
	b, err := rowBuilder(in, p)
	if err != nil {
		return nil, err
	}
	defer b.release()
	for row := range b.cb.IDs {
		k, first := b.key(row)
		if first { // memo: the key's block, hashed on first arrival
			b.memo = append(b.memo, hashutil.Bucket(b.keyString(k), p))
		}
		b.add(b.memo[k], k, row)
	}
	return b.build(in.Blocks), nil
}
