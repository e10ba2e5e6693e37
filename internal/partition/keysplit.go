package partition

import (
	"fmt"

	"prompt/internal/hashutil"
	"prompt/internal/tuple"
)

// PKd implements key-splitting partitioning with d candidate choices
// (§2.2.4): PK-2 is "the power of both choices" [Nasir et al., ICDE'15] and
// PK-5 its d=5 generalization [ICDE'16]. Each tuple's key is hashed with d
// independent hash functions to produce d candidate blocks, and the tuple
// joins the least-loaded candidate at decision time. Keys therefore split
// over at most d blocks, trading aggregation overhead for size balance.
type PKd struct {
	d int
}

// NewPKd returns a key-splitting partitioner with d candidates per key.
func NewPKd(d int) *PKd { return &PKd{d: d} }

// Name implements Partitioner.
func (pk *PKd) Name() string { return fmt.Sprintf("pk%d", pk.d) }

// Candidates returns the number of hash functions per key.
func (pk *PKd) Candidates() int { return pk.d }

// Partition implements Partitioner.
func (pk *PKd) Partition(in Input, p int) ([]*tuple.Block, error) {
	if pk.d < 1 {
		return nil, fmt.Errorf("partition: pk-d needs d >= 1, got %d", pk.d)
	}
	b, err := rowBuilder(in, p)
	if err != nil {
		return nil, err
	}
	defer b.release()
	for row := range b.cb.IDs {
		k, first := b.key(row)
		if first { // memo[k*d : (k+1)*d]: the key's candidate blocks
			b.memo = hashutil.AppendCandidates(b.memo, b.keyString(k), pk.d, p)
		}
		best, bestW := -1, 0
		for _, idx := range b.memo[int(k)*pk.d : int(k+1)*pk.d] {
			if w := b.weightOf(idx); best == -1 || w < bestW {
				best, bestW = idx, w
			}
		}
		b.add(best, k, row)
	}
	return b.build(in.Blocks), nil
}

// CAM implements the cardinality-aware key-splitting of Katsipoulakis et
// al. [VLDB'17] ("a holistic view of stream partitioning costs"): like
// PK-d, each key has d candidate blocks, but the choice minimizes a
// holistic cost that combines the tuple-count imbalance with the
// aggregation cost a new key fragment would add. The candidate count d is
// a tuning knob; the paper's evaluation reports the best-performing d per
// workload, which the harness mirrors by sweeping d.
type CAM struct {
	d int
	// Gamma weighs the cardinality term against the size term. 1 gives the
	// balanced objective used in the evaluation.
	Gamma float64
}

// NewCAM returns a cardinality-aware partitioner with d candidates per key.
func NewCAM(d int) *CAM { return &CAM{d: d, Gamma: 1} }

// Name implements Partitioner.
func (c *CAM) Name() string { return "cam" }

// Candidates returns the number of hash functions per key.
func (c *CAM) Candidates() int { return c.d }

// Partition implements Partitioner.
func (c *CAM) Partition(in Input, p int) ([]*tuple.Block, error) {
	if c.d < 1 {
		return nil, fmt.Errorf("partition: cam needs d >= 1, got %d", c.d)
	}
	b, err := rowBuilder(in, p)
	if err != nil {
		return nil, err
	}
	defer b.release()
	n := 0
	for row, w := range b.cb.W {
		k, first := b.key(row)
		if first { // memo[k*d : (k+1)*d]: the key's candidate blocks
			b.memo = hashutil.AppendCandidates(b.memo, b.keyString(k), c.d, p)
		}
		n += int(w)
		avg := float64(n) / float64(p)
		best := -1
		bestScore := 0.0
		for _, idx := range b.memo[int(k)*c.d : int(k+1)*c.d] {
			// Size term: how loaded the candidate already is, relative to
			// the running average. Cardinality term: the aggregation cost
			// of opening a new fragment of this key in the candidate.
			score := float64(b.weightOf(idx)) / (avg + 1)
			if !b.contains(idx, k) {
				score += c.Gamma * (1 + float64(b.cardinalityOf(idx))/(avg+1))
			}
			if best == -1 || score < bestScore {
				best, bestScore = idx, score
			}
		}
		b.add(best, k, row)
	}
	return b.build(in.Blocks), nil
}
