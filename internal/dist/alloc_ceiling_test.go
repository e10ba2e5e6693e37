package dist

import (
	"testing"

	"prompt/internal/core"
	"prompt/internal/engine"
	"prompt/internal/transport"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// TestClusterSteadyStateAllocCeiling pins the steady-state per-batch
// allocation count of the cluster path: the prompt scheme's Zipf hot path
// (Workers = 0) with its Map and Reduce folds on two shards behind the
// loopback transport, so the count covers the coordinator, both frame
// codecs and the shards. The engine first runs a warm-up so the
// dictionary, its shard mirrors and the pooled buffers reach their steady
// shapes; the ceiling then bounds what one more batch allocates.
//
// The ceiling is deliberately generous (several times the ~620
// allocations measured when it was recorded) so noise and modest feature
// growth do not trip it, while a return to per-key allocation anywhere on
// the path — a string per key, a map per bucket — fails loudly.
func TestClusterSteadyStateAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	const (
		rate    = 20_000
		card    = 5_000
		warm    = 32
		runs    = 8
		ceiling = 2_000 // allocations per batch, steady state
	)
	keys, err := workload.NewZipfSampler("k", card, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	src := &workload.Source{Name: "cluster-hotpath", Rate: workload.ConstantRate(rate), Keys: keys, Seed: 42}
	batches := make([][]tuple.Tuple, warm+runs+1)
	for i := range batches {
		start := tuple.Time(i) * tuple.Second
		ts, err := src.Slice(start, start+tuple.Second)
		if err != nil {
			t.Fatal(err)
		}
		batches[i] = ts
	}
	cfg := core.PromptScheme().Apply(engine.Config{
		BatchInterval: tuple.Second,
		MapTasks:      8,
		ReduceTasks:   8,
		Cores:         8,
	})
	queries := []engine.Query{engine.WordCount(window.Sliding(10*tuple.Second, tuple.Second))}
	eng, err := engine.NewMulti(cfg, queries)
	if err != nil {
		t.Fatal(err)
	}
	shards := newShards(2, queries)
	coord, err := NewCoordinator(transport.NewLoopback(shards[0], shards[1]), cfg.BatchInterval, queries)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	eng.SetExecutor(coord)
	step := func(k int) {
		start := tuple.Time(k) * tuple.Second
		if _, err := eng.Step(batches[k], start, start+tuple.Second); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < warm; k++ {
		step(k)
	}
	next := warm
	avg := testing.AllocsPerRun(runs, func() {
		step(next)
		next++
	})
	t.Logf("cluster steady-state allocations per batch: %.0f (ceiling %d)", avg, ceiling)
	if avg > ceiling {
		t.Errorf("steady-state cluster path allocates %.0f per batch, ceiling %d", avg, ceiling)
	}
	if coord.Down() != 0 {
		t.Error("a shard went down during the measurement")
	}
}
