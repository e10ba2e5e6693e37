package experiment

import (
	"fmt"
	"io"
	"math/rand"

	"prompt/internal/metrics"
	"prompt/internal/partition"
	"prompt/internal/tuple"
)

// Fig6Row is one heuristic's assignment quality on the bin-packing
// ablation.
type Fig6Row struct {
	Technique string
	BSI       float64
	BCI       float64
	KSR       float64
	SplitKeys int
}

// Fig6Result compares First-Fit-Decreasing, Fragmentation-Minimization,
// and Prompt's Algorithm 2 — the trade-off Figure 6 illustrates.
type Fig6Result struct {
	Instance string
	Rows     []Fig6Row
}

// Fig6Paper runs the ablation on the paper's running example: 385 tuples,
// 8 distinct keys, 4 blocks.
func Fig6Paper() (*Fig6Result, error) {
	sizes := []int{140, 80, 50, 40, 30, 20, 15, 10}
	batch := batchFromSizes(sizes, 1)
	return fig6On("385 tuples / 8 keys / 4 blocks (paper example)", batch, 4)
}

// Fig6Random runs the ablation on a randomized skewed instance.
func Fig6Random(p Params) (*Fig6Result, error) {
	rng := rand.New(rand.NewSource(p.Seed))
	sizes := make([]int, 200)
	for i := range sizes {
		sizes[i] = 1 + int(float64(p.BatchTuples/400)*rng.ExpFloat64())
	}
	batch := batchFromSizes(sizes, p.Seed)
	return fig6On(fmt.Sprintf("%d keys / %d blocks (randomized)", len(sizes), p.Blocks), batch, p.Blocks)
}

func fig6On(label string, batch *tuple.Batch, blocks int) (*Fig6Result, error) {
	res := &Fig6Result{Instance: label}
	in, err := inputFor(batch)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"ffd", "fragmin", "prompt"} {
		pt := partition.Registry()[name]
		out, err := pt.Partition(in, blocks)
		if err != nil {
			return nil, fmt.Errorf("experiment: fig6 %s: %w", name, err)
		}
		res.Rows = append(res.Rows, Fig6Row{
			Technique: name,
			BSI:       metrics.BSI(out),
			BCI:       metrics.BCI(out),
			KSR:       metrics.KSR(out),
			SplitKeys: countSplitKeys(out),
		})
	}
	return res, nil
}

// batchFromSizes builds a batch whose key frequencies match sizes, with
// interleaved arrivals.
func batchFromSizes(sizes []int, seed int64) *tuple.Batch {
	rng := rand.New(rand.NewSource(seed))
	var pool []string
	for i, n := range sizes {
		k := fmt.Sprintf("K%d", i+1)
		for j := 0; j < n; j++ {
			pool = append(pool, k)
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	b := &tuple.Batch{Start: 0, End: tuple.Second}
	for i, k := range pool {
		ts := tuple.Time(int64(i) * int64(tuple.Second) / int64(len(pool)))
		b.Tuples = append(b.Tuples, tuple.NewTuple(ts, k, 1))
	}
	return b
}

func countSplitKeys(blocks []*tuple.Block) int {
	frags := map[string]int{}
	for _, bl := range blocks {
		seen := map[string]bool{}
		for _, ks := range bl.Keys {
			if !seen[ks.Key] {
				seen[ks.Key] = true
				frags[ks.Key]++
			}
		}
	}
	n := 0
	for _, f := range frags {
		if f > 1 {
			n++
		}
	}
	return n
}

// Print renders the ablation table.
func (r *Fig6Result) Print(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintf(tw, "Figure 6 ablation: B-BPFI heuristics — %s\n", r.Instance)
	fmt.Fprintln(tw, "technique\tBSI\tBCI\tKSR\tsplit keys")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\n",
			row.Technique, fmtF(row.BSI), fmtF(row.BCI), fmtF(row.KSR), row.SplitKeys)
	}
	tw.Flush()
}
