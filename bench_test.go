// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per experiment id; see DESIGN.md §3 for the index), plus
// micro-benchmarks of the hot paths: Algorithm 1's accumulator, Algorithm
// 2's partitioner against every baseline, and Algorithm 3's allocator.
//
// The figure benches measure the time to regenerate the experiment at
// Quick scale and report its headline number as a custom metric; the
// printable paper-style tables come from cmd/promptbench.
package prompt_test

import (
	"fmt"
	"testing"

	"prompt/internal/experiment"
	"prompt/internal/partition"
	"prompt/internal/reducer"
	"prompt/internal/stats"
	"prompt/internal/tuple"
	"prompt/internal/workload"
)

// benchBatch materializes a Tweets batch of n tuples for micro-benches.
func benchBatch(b *testing.B, n int) *tuple.Batch {
	b.Helper()
	src, err := workload.Tweets(workload.ConstantRate(float64(n)),
		workload.DatasetDefaults{Cardinality: 20_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ts, err := src.Slice(0, tuple.Second)
	if err != nil {
		b.Fatal(err)
	}
	return &tuple.Batch{Start: 0, End: tuple.Second, Tuples: ts}
}

// --- Table 1 ---------------------------------------------------------------

func BenchmarkTable1_DatasetGenerators(b *testing.B) {
	p := experiment.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Table1(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6 ablation -------------------------------------------------------

func BenchmarkFig6_Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Fig6Paper(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 10 ---------------------------------------------------------------

func BenchmarkFig10_BSI(b *testing.B) {
	p := experiment.Quick()
	var last *experiment.Fig10Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig10(p, "tweets")
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Technique == "prompt" {
			b.ReportMetric(row.RelativeBSI, "relBSI-prompt")
		}
	}
}

func BenchmarkFig10_BCI(b *testing.B) {
	p := experiment.Quick()
	var last *experiment.Fig10Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig10(p, "tpch")
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Technique == "prompt" {
			b.ReportMetric(row.RelativeBCI, "relBCI-prompt")
		}
	}
}

// --- Figure 11 ---------------------------------------------------------------

func BenchmarkFig11_VariableRate(b *testing.B) {
	p := experiment.Quick()
	var last *experiment.Fig11Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig11(p, "tweets", []int{1})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Technique == "prompt" {
			b.ReportMetric(row.Throughput[1], "prompt-tuples/s")
		}
		if row.Technique == "time" {
			b.ReportMetric(row.Throughput[1], "time-tuples/s")
		}
	}
}

func BenchmarkFig11_Skew(b *testing.B) {
	p := experiment.Quick()
	var last *experiment.Fig11dResult
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig11Skew(p, []float64{1.5}, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, row := range last.Rows {
		if row.Technique == "prompt" {
			b.ReportMetric(row.Throughput["1.5"], "prompt-z1.5-tuples/s")
		}
	}
}

// --- Figure 12 ---------------------------------------------------------------

func BenchmarkFig12_ScaleOut(b *testing.B) {
	p := experiment.Quick()
	var last *experiment.Fig12Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig12(p)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	peak := 0
	for _, pt := range last.Points {
		if pt.MapTasks+pt.ReduceTasks > peak {
			peak = pt.MapTasks + pt.ReduceTasks
		}
	}
	b.ReportMetric(float64(peak), "peak-tasks")
}

// --- Figure 13 ---------------------------------------------------------------

func BenchmarkFig13_Latency(b *testing.B) {
	p := experiment.Quick()
	var last *experiment.Fig13Result
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig13(p, 10)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for _, s := range last.Series {
		b.ReportMetric(s.MeanMs, s.Technique+"-mean-reduce-ms")
	}
}

// --- Figure 14 ---------------------------------------------------------------

func BenchmarkFig14_PostSort(b *testing.B) {
	p := experiment.Quick()
	var last *experiment.Fig14aResult
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig14a(p)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.FrequencyAware, "freqaware-tuples/s")
	b.ReportMetric(last.PostSort, "postsort-tuples/s")
}

func BenchmarkFig14_Overhead(b *testing.B) {
	p := experiment.Quick()
	var last *experiment.Fig14bResult
	for i := 0; i < b.N; i++ {
		res, err := experiment.Fig14b(p, []int{100_000})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[0].PercentOfInterval, "%-of-interval")
}

// --- Micro-benchmarks: Algorithm 1 -------------------------------------------

func BenchmarkAccumulatorAdd(b *testing.B) {
	batch := benchBatch(b, 100_000)
	cfg := stats.DefaultAccumulatorConfig()
	cfg.EstimatedTuples = batch.Len()
	acc, err := stats.NewAccumulator(cfg, 0, tuple.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := acc.Reset(cfg, 0, tuple.Second); err != nil {
			b.Fatal(err)
		}
		for j := range batch.Tuples {
			if err := acc.Add(batch.Tuples[j], batch.Tuples[j].TS); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(batch.Len()), "tuples/op")
}

func BenchmarkAccumulatorFinalize(b *testing.B) {
	batch := benchBatch(b, 100_000)
	cfg := stats.DefaultAccumulatorConfig()
	cfg.EstimatedTuples = batch.Len()
	acc, err := stats.NewAccumulator(cfg, 0, tuple.Second)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := acc.Reset(cfg, 0, tuple.Second); err != nil {
			b.Fatal(err)
		}
		for j := range batch.Tuples {
			if err := acc.Add(batch.Tuples[j], batch.Tuples[j].TS); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		acc.Finalize()
	}
}

func BenchmarkPostSortBaseline(b *testing.B) {
	batch := benchBatch(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.PostSort(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks: Algorithm 2 and baselines ------------------------------

func BenchmarkPartitioners(b *testing.B) {
	batch := benchBatch(b, 100_000)
	sorted, err := stats.PostSort(batch)
	if err != nil {
		b.Fatal(err)
	}
	in := partition.Input{Batch: batch, Sorted: sorted}
	for _, name := range partition.Names() {
		pt := partition.Registry()[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pt.Partition(in, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks: Algorithm 3 --------------------------------------------

func BenchmarkReduceAllocators(b *testing.B) {
	clusters := make([]tuple.Cluster, 5000)
	ref := make(map[string]tuple.SplitInfo, len(clusters))
	for i := range clusters {
		k := fmt.Sprintf("k%d", i)
		size := 1 + (i*7919)%400
		clusters[i] = tuple.Cluster{Key: k, Size: size}
		ref[k] = tuple.SplitInfo{Split: i%20 == 0, TotalSize: size, Fragments: 1}
	}
	for _, a := range []reducer.Assigner{reducer.NewHash(), reducer.NewPrompt()} {
		b.Run(a.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := a.Assign(0, clusters, ref, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
