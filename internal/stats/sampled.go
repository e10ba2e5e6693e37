package stats

import (
	"math/rand"

	"prompt/internal/tuple"
)

// SampledSort mimics the approximate statistics tuple-at-a-time systems
// rely on (§2.2.4 of the paper): key frequencies are estimated from a
// uniform sample of the batch instead of exact counts, then the full
// tuple lists are ordered by the estimated frequencies. Keys that never
// appear in the sample get estimated frequency zero and end up in random
// tail order. The partitioning-quality gap between this and the exact
// accumulator quantifies the advantage the micro-batch model gives Prompt:
// statistics can be exact because the whole batch is visible before the
// partitioning decision.
//
// rate is the sampling probability in (0, 1]; seed fixes the sample.
func SampledSort(b *tuple.Batch, rate float64, seed int64) ([]SortedKey, error) {
	if rate >= 1 {
		return PostSort(b)
	}
	if rate <= 0 {
		rate = 0.01
	}
	rng := rand.New(rand.NewSource(seed))

	// Estimate counts from the sample.
	estimated := make(map[string]int)
	for i := range b.Tuples {
		if rng.Float64() < rate {
			estimated[b.Tuples[i].Key]++
		}
	}

	// Group the full batch per key (the buffers exist regardless; only
	// the ordering statistics are approximate).
	out, err := PostSort(b)
	if err != nil {
		return nil, err
	}
	for i := range out {
		// Counts are the scaled estimates: what the partitioner believes.
		out[i].Count = int(float64(estimated[out[i].Key]) / rate)
	}
	SortKeysDesc(out)
	return out, nil
}
