package engine

import (
	"fmt"
	"testing"

	"prompt/internal/partition"
	"prompt/internal/reducer"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// hotPathScheme is one cell of the BenchmarkHotPath scheme axis. Every
// scheme ingests rows through Step, the public edge, which transposes
// them once into columns.
type hotPathScheme struct {
	name   string
	config func(Config) Config
}

func hotPathSchemes() []hotPathScheme {
	return []hotPathScheme{
		{name: "prompt", config: func(cfg Config) Config {
			cfg.Partitioner = partition.NewPrompt()
			cfg.Assigner = reducer.NewPrompt()
			cfg.Accum = FrequencyAware
			return cfg
		}},
		{name: "hash", config: func(cfg Config) Config {
			cfg.Partitioner = partition.NewHash()
			cfg.Assigner = reducer.NewHash()
			cfg.Accum = PostSortMode
			return cfg
		}},
		{name: "pk5", config: func(cfg Config) Config {
			cfg.Partitioner = partition.NewPKd(5)
			cfg.Assigner = reducer.NewHash()
			cfg.Accum = PostSortMode
			return cfg
		}},
	}
}

// hotPathSource builds the skew axis: the same rate and cardinality under
// a uniform and a Zipf (z=1.0, Tweets-like) key distribution.
func hotPathSource(tb testing.TB, skew string, rate float64, card int) *workload.Source {
	tb.Helper()
	var (
		keys workload.KeySampler
		err  error
	)
	switch skew {
	case "uniform":
		keys, err = workload.NewUniformSampler("k", card)
	case "zipf":
		keys, err = workload.NewZipfSampler("k", card, 1.0)
	default:
		tb.Fatalf("unknown skew %q", skew)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return &workload.Source{Name: "hotpath-" + skew, Rate: workload.ConstantRate(rate), Keys: keys, Seed: 42}
}

// hotPathBatches materializes n consecutive batch intervals up front so
// the timed loop measures only the engine's own work: every allocation
// inside the loop is engine allocation, making allocs/op the per-batch
// steady-state allocation count.
func hotPathBatches(tb testing.TB, src *workload.Source, n int, interval tuple.Time) [][]tuple.Tuple {
	tb.Helper()
	out := make([][]tuple.Tuple, n)
	for i := range out {
		ts, err := src.Slice(tuple.Time(i)*interval, tuple.Time(i+1)*interval)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = ts
	}
	return out
}

func hotPathConfig(workers int) Config {
	cfg := testConfig()
	cfg.ValidateBatches = false
	cfg.MapTasks = 8
	cfg.ReduceTasks = 8
	cfg.Cores = 8
	cfg.Workers = workers
	return cfg
}

func newHotPathEngine(tb testing.TB, hs hotPathScheme, workers int) *Engine {
	tb.Helper()
	eng, err := New(hs.config(hotPathConfig(workers)),
		WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// BenchmarkHotPath drives the full batch pipeline — statistics,
// partitioning, Map, bucket assignment, shuffle, Reduce, window commit —
// in steady state over pre-materialized batches, across the scheme ×
// workers × key-skew matrix. Run with -benchmem; the allocation counts are
// pinned separately by the alloc-ceiling tests.
//
// One engine instance processes hotPathCycle consecutive batches before a
// fresh engine restarts the cycle, so cross-batch reuse (accumulator
// reset, pooled buffers) dominates and the engine-construction cost
// amortizes to noise.
func BenchmarkHotPath(b *testing.B) {
	const (
		rate  = 20_000 // tuples per one-second batch
		card  = 5_000  // distinct keys
		cycle = 32     // batches per engine instance
	)
	for _, hs := range hotPathSchemes() {
		for _, workers := range []int{0, 4} {
			for _, skew := range []string{"uniform", "zipf"} {
				name := fmt.Sprintf("scheme=%s/workers=%d/skew=%s", hs.name, workers, skew)
				b.Run(name, func(b *testing.B) {
					src := hotPathSource(b, skew, rate, card)
					batches := hotPathBatches(b, src, cycle, tuple.Second)
					tuplesPerBatch := 0
					for _, bt := range batches {
						tuplesPerBatch += len(bt)
					}
					tuplesPerBatch /= len(batches)
					b.SetBytes(int64(tuplesPerBatch))
					b.ReportAllocs()
					b.ResetTimer()
					var eng *Engine
					for i := 0; i < b.N; i++ {
						k := i % cycle
						if k == 0 {
							eng = newHotPathEngine(b, hs, workers)
						}
						start := tuple.Time(k) * tuple.Second
						if _, err := eng.Step(batches[k], start, start+tuple.Second); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
