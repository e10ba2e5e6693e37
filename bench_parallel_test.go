// Benchmarks for the concurrent batch-pipeline runtime: the same
// micro-batch processed by the classic single-goroutine driver and by the
// shared worker pool. Workers changes wall-clock time only — the
// BatchReport equivalence is asserted by the tests in
// internal/engine/parallel_test.go.
package prompt_test

import (
	"fmt"
	"testing"
	"time"

	"prompt"

	"prompt/internal/tuple"
	"prompt/internal/workload"
)

// pipelineBatchTuples materializes one Tweets batch interval of n tuples.
func pipelineBatchTuples(tb testing.TB, n int) []prompt.Tuple {
	tb.Helper()
	src, err := workload.Tweets(workload.ConstantRate(float64(n)),
		workload.DatasetDefaults{Cardinality: 50_000, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	ts, err := src.Slice(0, tuple.Second)
	if err != nil {
		tb.Fatal(err)
	}
	return ts
}

// pipelineConfig is the benchmark configuration: 16-way simulated
// parallelism so the Map and Reduce stages have enough independent tasks
// to occupy the worker pool.
func pipelineConfig(workers int) prompt.Config {
	return prompt.Config{
		BatchInterval: time.Second,
		MapTasks:      16,
		ReduceTasks:   16,
		Cores:         16,
		Workers:       workers,
	}
}

// BenchmarkBatchPipelineParallel processes a one-million-tuple batch
// through the full pipeline — Algorithm 1 statistics, B-BPFI
// partitioning, Map, Algorithm 3 assignment, Reduce, window merge — under
// increasing worker counts. workers=1 is the pool-backed sequential
// baseline; compare against workers=8 (or GOMAXPROCS) for the speedup.
func BenchmarkBatchPipelineParallel(b *testing.B) {
	tuples := pipelineBatchTuples(b, 1_000_000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(tuples)))
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := prompt.New(pipelineConfig(workers), prompt.WordCount(10*time.Second, time.Second))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := st.ProcessBatch(tuples); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
