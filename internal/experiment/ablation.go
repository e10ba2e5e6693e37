package experiment

import (
	"fmt"
	"io"

	"prompt/internal/core"
	"prompt/internal/engine"
	"prompt/internal/metrics"
	"prompt/internal/partition"
	"prompt/internal/reducer"
	"prompt/internal/stats"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// This file quantifies the design choices DESIGN.md §4 calls out, beyond
// the paper's own figures: the load-aware dealing pass vs the published
// reversal-only zigzag, the fragment-size floor, Worst-Fit rotation in the
// reduce allocator, and the early-batch-release slack.

// AblationRow is one variant's quality and cost.
type AblationRow struct {
	Variant string
	BSI     float64
	BCI     float64
	KSR     float64
	// BucketBSI is the reduce-side size imbalance after Algorithm 3.
	BucketBSI float64
}

// AblationResult is a variant comparison on one workload.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// Print renders the table.
func (r *AblationResult) Print(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, r.Title)
	fmt.Fprintln(tw, "variant\tBSI\tBCI\tKSR\tbucket BSI")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n",
			row.Variant, fmtF(row.BSI), fmtF(row.BCI), fmtF(row.KSR), fmtF(row.BucketBSI))
	}
	tw.Flush()
}

// ablate partitions one batch with each variant and pushes the blocks
// through the given allocator to measure both stages.
func ablate(title string, batch *tuple.Batch, p, r int,
	variants []partition.Partitioner, alloc reducer.Assigner) (*AblationResult, error) {
	res := &AblationResult{Title: title}
	in, err := inputFor(batch)
	if err != nil {
		return nil, err
	}
	for _, pt := range variants {
		blocks, err := pt.Partition(in, p)
		if err != nil {
			return nil, fmt.Errorf("experiment: ablation %s: %w", pt.Name(), err)
		}
		bucketBSI, err := bucketImbalance(blocks, alloc, r)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:   pt.Name(),
			BSI:       metrics.BSI(blocks),
			BCI:       metrics.BCI(blocks),
			KSR:       metrics.KSR(blocks),
			BucketBSI: bucketBSI,
		})
	}
	return res, nil
}

// bucketImbalance runs the allocator over every block's clusters and
// reports the bucket-size BSI.
func bucketImbalance(blocks []*tuple.Block, alloc reducer.Assigner, r int) (float64, error) {
	buckets := reducer.NewBucketSet(r)
	for _, bl := range blocks {
		clusters := make([]tuple.Cluster, 0, len(bl.Keys))
		seen := make(map[string]int, len(bl.Keys))
		for _, ks := range bl.Keys {
			if j, ok := seen[ks.Key]; ok {
				clusters[j].Size += ks.Len()
				continue
			}
			seen[ks.Key] = len(clusters)
			clusters = append(clusters, tuple.Cluster{Key: ks.Key, ID: ks.ID, Size: ks.Len()})
		}
		if len(clusters) == 0 {
			continue
		}
		assign, err := alloc.Assign(bl.ID, clusters, bl.Ref, r)
		if err != nil {
			return 0, err
		}
		for ci, b := range assign {
			if err := buckets.Place(clusters[ci], b); err != nil {
				return 0, err
			}
		}
	}
	return metrics.BSISizes(buckets.Sizes()), nil
}

// AblationDealing compares the load-aware dealing pass against the
// published reversal-only zigzag (DESIGN.md §4.2).
func AblationDealing(p Params, dataset string) (*AblationResult, error) {
	batch, err := p.oneBatch(dataset, 1.0)
	if err != nil {
		return nil, err
	}
	return ablate(
		fmt.Sprintf("Ablation: dealing strategy (pass 2) — %s", dataset),
		batch, p.Blocks, p.Reducers,
		[]partition.Partitioner{
			&partition.Prompt{},
			&partition.Prompt{ReversalOnly: true},
		},
		reducer.NewPrompt(),
	)
}

// AblationFragDivisor sweeps the fragment-size floor (DESIGN.md §4: a
// larger divisor slices hot keys finer — better reduce balance, higher
// KSR).
func AblationFragDivisor(p Params, dataset string) (*AblationResult, error) {
	batch, err := p.oneBatch(dataset, 1.0)
	if err != nil {
		return nil, err
	}
	variants := make([]partition.Partitioner, 0, 4)
	for _, div := range []int{1, 4, 8, 32} {
		variants = append(variants, namedPrompt{
			Prompt: &partition.Prompt{FragDivisor: div},
			name:   fmt.Sprintf("prompt(F=P_Size/%d)", div),
		})
	}
	return ablate(
		fmt.Sprintf("Ablation: fragment-size floor — %s", dataset),
		batch, p.Blocks, p.Reducers, variants, reducer.NewPrompt(),
	)
}

// namedPrompt overrides the display name of a Prompt variant.
type namedPrompt struct {
	*partition.Prompt
	name string
}

func (n namedPrompt) Name() string { return n.name }

// AblationRotation compares Algorithm 3's Worst-Fit-with-rotation against
// plain Worst-Fit (DESIGN.md §4.3).
func AblationRotation(p Params, dataset string) (*AblationResult, error) {
	batch, err := p.oneBatch(dataset, 1.0)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: fmt.Sprintf("Ablation: reduce allocation — %s", dataset)}
	in, err := inputFor(batch)
	if err != nil {
		return nil, err
	}
	blocks, err := partition.NewPrompt().Partition(in, p.Blocks)
	if err != nil {
		return nil, err
	}
	for _, alloc := range []reducer.Assigner{
		reducer.NewPrompt(),
		&reducer.PromptAllocator{NoRotation: true},
		reducer.NewHash(),
	} {
		bucketBSI, err := bucketImbalance(blocks, alloc, p.Reducers)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:   alloc.Name(),
			BSI:       metrics.BSI(blocks),
			BCI:       metrics.BCI(blocks),
			KSR:       metrics.KSR(blocks),
			BucketBSI: bucketBSI,
		})
	}
	return res, nil
}

// AblationSampling contrasts exact batch statistics (what the micro-batch
// model lets Prompt compute, §2.2.4) with the sampled statistics
// tuple-at-a-time partitioners depend on: the same Prompt partitioner is
// fed key lists ordered by exact counts vs counts estimated from 1% and
// 0.1% samples. The quality gap at aggressive sampling rates quantifies
// the motivation.
func AblationSampling(p Params, dataset string) (*AblationResult, error) {
	batch, err := p.oneBatch(dataset, 1.4)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Title: fmt.Sprintf("Ablation: exact vs sampled statistics — %s", dataset)}
	pr := partition.NewPrompt()
	for _, tc := range []struct {
		name string
		rate float64
	}{
		{"exact (Alg. 1)", 1},
		{"sampled 1%", 0.01},
		{"sampled 0.1%", 0.001},
	} {
		sorted, err := stats.SampledSort(batch, tc.rate, p.Seed)
		if err != nil {
			return nil, err
		}
		blocks, err := pr.Partition(partition.Input{Batch: batch, Sorted: sorted}, p.Blocks)
		if err != nil {
			return nil, err
		}
		bucketBSI, err := bucketImbalance(blocks, reducer.NewPrompt(), p.Reducers)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:   tc.name,
			BSI:       metrics.BSI(blocks),
			BCI:       metrics.BCI(blocks),
			KSR:       metrics.KSR(blocks),
			BucketBSI: bucketBSI,
		})
	}
	return res, nil
}

// SlackRow is one early-release setting's outcome.
type SlackRow struct {
	Fraction float64
	// MeanPartitionMs is the measured statistics+partitioning wall time.
	MeanPartitionMs float64
	// MeanOverflowMs is the partitioning time that spilled past the slack
	// into processing, averaged per batch.
	MeanOverflowMs float64
	// MeanProcessingMs is the resulting batch processing time.
	MeanProcessingMs float64
	Unstable         int
}

// SlackResult is the early-batch-release sweep (DESIGN.md §4.4).
type SlackResult struct {
	Rows []SlackRow
}

// AblationSlack sweeps the early-batch-release fraction and reports how
// much partitioning time leaks into the processing phase at each setting.
func AblationSlack(p Params, fractions []float64) (*SlackResult, error) {
	res := &SlackResult{}
	for _, f := range fractions {
		src, err := workload.Tweets(workload.ConstantRate(0.5*p.SearchHi), p.datasetDefaults())
		if err != nil {
			return nil, err
		}
		cfg := p.engineConfig(core.PromptScheme(), tuple.Second)
		cfg.EarlyReleaseFraction = f
		if f == 0 {
			cfg.EarlyReleaseFraction = -1 // explicit zero slack
		}
		eng, err := engine.New(cfg, engine.Query{Name: "wc", Map: engine.CountMap, Reduce: window.Sum})
		if err != nil {
			return nil, err
		}
		reports, err := eng.RunBatches(src, p.WarmupBatches+p.MeasureBatches)
		if err != nil {
			return nil, err
		}
		row := SlackRow{Fraction: f}
		n := 0
		for _, rep := range reports[p.WarmupBatches:] {
			row.MeanPartitionMs += ms(rep.PartitionTime)
			row.MeanOverflowMs += ms(rep.PartitionOverflow)
			row.MeanProcessingMs += ms(rep.ProcessingTime)
			if !rep.Stable {
				row.Unstable++
			}
			n++
		}
		if n > 0 {
			row.MeanPartitionMs /= float64(n)
			row.MeanOverflowMs /= float64(n)
			row.MeanProcessingMs /= float64(n)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Print renders the sweep.
func (r *SlackResult) Print(w io.Writer) {
	tw := newTabWriter(w)
	fmt.Fprintln(tw, "Ablation: early batch release slack (fraction of the batch interval)")
	fmt.Fprintln(tw, "slack\tmean partition ms\tmean overflow ms\tmean processing ms\tunstable")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%.3f\t%s\t%s\t%s\t%d\n",
			row.Fraction, fmtF(row.MeanPartitionMs), fmtF(row.MeanOverflowMs),
			fmtF(row.MeanProcessingMs), row.Unstable)
	}
	tw.Flush()
}
