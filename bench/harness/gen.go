package harness

import (
	"math"
	"math/rand"
	"sort"
	"strconv"

	"prompt"
)

// Cycle is a workload's generated input: a fixed ring of batches that
// the driver submits round-robin. Timestamps are offsets from the start
// of a batch interval; Restamp shifts a copy to the stream's clock.
//
// The benchmark owns this generator (it does not import
// internal/workload) so that an edit to a sampler in the repository can
// never silently change the load a later commit is measured under.
type Cycle struct {
	Batches  [][]prompt.Tuple
	Interval prompt.Time
}

// Generate builds the workload's cycle from the seed: the same seed
// gives the same tuples, byte for byte. Keys are drawn by inverse-CDF
// Zipf (z = 0 is uniform) and every distinct key is one canonical
// string shared by all its tuples, so generation allocates per key, not
// per tuple. Payloads are integers, which keeps float64 sums exact in
// any fold order: the answer check can demand equality.
func Generate(w Workload, seed int64) *Cycle {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, w.Keys)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	cdf := zipfCDF(w.Keys, w.Zipf)
	interval := prompt.At(Interval)
	c := &Cycle{Batches: make([][]prompt.Tuple, w.CycleLen), Interval: interval}
	for b := range c.Batches {
		batch := make([]prompt.Tuple, w.Tuples)
		for i := range batch {
			rank := sort.SearchFloat64s(cdf, rng.Float64())
			if rank >= len(keys) {
				rank = len(keys) - 1
			}
			val := 1.0
			if w.Sum {
				val = float64(1 + rng.Intn(100))
			}
			off := prompt.Time(int64(i) * int64(interval) / int64(w.Tuples))
			batch[i] = prompt.NewTuple(off, keys[rank], val)
		}
		c.Batches[b] = batch
	}
	return c
}

// zipfCDF returns the cumulative distribution over n ranks with
// exponent z; the last entry is exactly 1.
func zipfCDF(n int, z float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += math.Pow(float64(i+1), -z)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// Restamp copies cycle entry i into dst (grown as needed) with every
// timestamp shifted to start at now, and returns the copy.
func (c *Cycle) Restamp(dst []prompt.Tuple, i int, now prompt.Time) []prompt.Tuple {
	src := c.Batches[i%len(c.Batches)]
	if cap(dst) < len(src) {
		dst = make([]prompt.Tuple, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	for j := range dst {
		dst[j].TS += now
	}
	return dst
}

// Reference recomputes the window answer the engine must hold after
// the given cycle entries (the batches still inside the window, oldest
// first) were the last ones submitted: per-key counts for WordCount,
// per-key payload sums for SlidingSum.
func (c *Cycle) Reference(w Workload, submitted []int) map[string]float64 {
	ref := make(map[string]float64)
	for _, i := range submitted {
		for _, t := range c.Batches[i%len(c.Batches)] {
			if w.Sum {
				ref[t.Key] += t.Val
			} else {
				ref[t.Key]++
			}
		}
	}
	return ref
}
