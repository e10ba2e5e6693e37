package partition

import "prompt/internal/tuple"

// TimeBased implements the default Spark Streaming partitioning (§2.2.1):
// the batch interval is split into p equal, consecutive block intervals and
// every tuple joins the block of the interval its timestamp falls in. Block
// sizes therefore track the instantaneous data rate, and no key-placement
// guarantee exists.
type TimeBased struct{}

// NewTimeBased returns the time-based partitioner.
func NewTimeBased() *TimeBased { return &TimeBased{} }

// Name implements Partitioner.
func (*TimeBased) Name() string { return "time" }

// Partition implements Partitioner.
func (tb *TimeBased) Partition(in Input, p int) ([]*tuple.Block, error) {
	b, err := rowBuilder(in, p)
	if err != nil {
		return nil, err
	}
	defer b.release()
	span := b.cb.End - b.cb.Start
	for row, ts := range b.cb.TS {
		var idx int
		if span > 0 {
			idx = int(int64(ts-b.cb.Start) * int64(p) / int64(span))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= p {
			idx = p - 1
		}
		k, _ := b.key(row)
		b.add(idx, k, row)
	}
	return b.build(in.Blocks), nil
}
