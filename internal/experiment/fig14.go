package experiment

import (
	"fmt"
	"io"
	"time"

	"prompt/internal/core"
	"prompt/internal/partition"
	"prompt/internal/stats"
	"prompt/internal/tuple"
	"prompt/internal/workload"
)

// Fig14aResult compares Prompt's frequency-aware buffering against the
// post-sort baseline (Figure 14a): same partitioner, different statistics
// collection, measured as maximum sustained throughput.
type Fig14aResult struct {
	FrequencyAware float64
	PostSort       float64
}

// Fig14a regenerates Figure 14a. The post-sort variant pays its sorting
// cost at the heartbeat, eating into the early-release slack and delaying
// processing, which lowers the rate it can sustain.
func Fig14a(p Params) (*Fig14aResult, error) {
	mk := func(rate float64) (*workload.Source, error) {
		return workload.Tweets(workload.ConstantRate(rate), p.datasetDefaults())
	}
	fa, err := MaxThroughput(p, core.PromptScheme(), tuple.Second, mk)
	if err != nil {
		return nil, err
	}
	ps, err := MaxThroughput(p, core.PromptPostSort(), tuple.Second, mk)
	if err != nil {
		return nil, err
	}
	return &Fig14aResult{FrequencyAware: fa, PostSort: ps}, nil
}

// Print renders the comparison.
func (r *Fig14aResult) Print(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Figure 14a: Post-Sort cost — max throughput (tuples/s)")
	fmt.Fprintln(tw, "variant\tthroughput")
	fmt.Fprintf(tw, "prompt (frequency-aware, Alg. 1)\t%s\n", fmtF(r.FrequencyAware))
	fmt.Fprintf(tw, "prompt (post-sort)\t%s\n", fmtF(r.PostSort))
	tw.Flush()
}

// Fig14bRow is the measured partitioning overhead for one batch size.
type Fig14bRow struct {
	BatchTuples int
	Keys        int
	// FinalizeMs is the wall time to produce the quasi-sorted list at the
	// heartbeat (one sort of the accumulator's keys by published frequency).
	FinalizeMs float64
	// PartitionMs is the wall time of Algorithm 2.
	PartitionMs float64
	// PercentOfInterval is (finalize+partition) relative to a 1 s batch
	// interval — the quantity Figure 14b bounds at 5%.
	PercentOfInterval float64
}

// Fig14bResult is the overhead study.
type Fig14bResult struct {
	Rows []Fig14bRow
}

// Fig14b regenerates Figure 14b: the cost of running Prompt's statistics
// finalization plus partitioning, as a percentage of a 1-second batch
// interval, across batch sizes.
//
// The tuples are fed one at a time through Accumulator.Add, so the
// counting scatter that cuts each key's run out of the arrival log runs
// inside Finalize and is charged to the finalize column. The engine feeds
// whole column batches through AddColumns, which scatters during the
// accumulate stage, so its release point pays only the sort.
func Fig14b(p Params, batchSizes []int) (*Fig14bResult, error) {
	res := &Fig14bResult{}
	pr := partition.NewPrompt()
	for _, n := range batchSizes {
		src, err := workload.Tweets(workload.ConstantRate(float64(n)), p.datasetDefaults())
		if err != nil {
			return nil, err
		}
		ts, err := src.Slice(0, tuple.Second)
		if err != nil {
			return nil, err
		}
		batch := &tuple.Batch{Start: 0, End: tuple.Second, Tuples: ts}

		// Feed Algorithm 1 as the receiver would; its per-tuple work
		// overlaps buffering, so only finalize+partition count.
		acc, err := stats.NewAccumulator(stats.AccumulatorConfig{
			Budget:          8,
			EstimatedTuples: n,
			EstimatedKeys:   p.Cardinality,
		}, 0, tuple.Second)
		if err != nil {
			return nil, err
		}
		for i := range batch.Tuples {
			if err := acc.Add(batch.Tuples[i], batch.Tuples[i].TS); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		sorted, st := acc.Finalize()
		finalize := time.Since(t0)

		t1 := time.Now()
		if _, err := pr.Partition(partition.Input{Batch: batch, Sorted: sorted}, p.Blocks); err != nil {
			return nil, err
		}
		part := time.Since(t1)

		totalMs := float64(finalize+part) / float64(time.Millisecond)
		res.Rows = append(res.Rows, Fig14bRow{
			BatchTuples:       len(batch.Tuples),
			Keys:              st.Keys,
			FinalizeMs:        float64(finalize) / float64(time.Millisecond),
			PartitionMs:       float64(part) / float64(time.Millisecond),
			PercentOfInterval: totalMs / 10, // 1000 ms interval -> percent
		})
	}
	return res, nil
}

// Print renders the overhead table.
func (r *Fig14bResult) Print(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Figure 14b: Prompt partitioning overhead (1 s batch interval)")
	fmt.Fprintln(tw, "batch tuples\tkeys\tfinalize ms\tpartition ms\t% of interval")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%s%%\n",
			row.BatchTuples, row.Keys, fmtF(row.FinalizeMs), fmtF(row.PartitionMs),
			fmtF(row.PercentOfInterval))
	}
	tw.Flush()
}
