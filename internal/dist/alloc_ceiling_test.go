package dist

import (
	"runtime"
	"testing"
	"time"

	"prompt/internal/core"
	"prompt/internal/engine"
	"prompt/internal/transport"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// TestClusterSteadyStateAllocCeiling pins the steady-state per-batch
// allocations — count and bytes — of the cluster path: the prompt
// scheme's Zipf hot path (Workers = 0) with its Map and Reduce folds on
// two shards behind the loopback transport, so the figures cover the
// coordinator, both frame codecs and the shards.
//
// The ceilings sit above the 171 allocations and 1 364 KB measured when
// they were set (377 allocations under the race detector, whose pools drop
// a quarter of what they are given; 383 and 3 567 KB with every envelope,
// block run and contribution list copied before it was encoded, and every
// block folded through a fresh block), so noise and modest feature growth
// do not trip them, while a return to per-key allocation anywhere on the
// path — a string per key, a map per bucket — fails loudly.
func TestClusterSteadyStateAllocCeiling(t *testing.T) {
	testClusterSteadyState(t, func(hs ...transport.Handler) transport.Transport {
		return transport.NewLoopback(hs...)
	}, clusterCeiling{count: 500, raceCount: 1_000, bytes: 1_728 << 10})
}

// TestPipeClusterSteadyStateAllocCeiling is the same measurement over the
// pipe backend: the path a socket deployment takes — Mux envelopes built
// in place in the connection's encoder buffer, a serve loop per shard
// decoding task frames into the connection's storage, a reader goroutine
// per coordinator link — with in-memory pipes for sockets. Its byte
// ceiling is the one that catches a frame-sized buffer grown or copied
// per exchange, which costs few allocations but hundreds of kilobytes:
// 201 allocations and 515 KB were measured when it was set (416
// allocations under the race detector), 449 and 3 913 KB with the
// envelope marshalled on its own and copied, and every frame's columns
// decoded into a fresh arena.
func TestPipeClusterSteadyStateAllocCeiling(t *testing.T) {
	testClusterSteadyState(t, func(hs ...transport.Handler) transport.Transport {
		return transport.NewPipe(10*time.Second, hs...)
	}, clusterCeiling{count: 500, raceCount: 1_000, bytes: 640 << 10})
}

// clusterCeiling is a steady-state budget per batch: allocations (count,
// or raceCount under the race detector) and bytes (not checked under the
// race detector).
type clusterCeiling struct {
	count, raceCount, bytes uint64
}

// testClusterSteadyState runs the engine over two shards behind the
// transport tr builds, first a warm-up so the dictionary, its shard
// mirrors and the pooled and per-connection buffers reach their steady
// shapes, then bounds what one more batch allocates (runtime.MemStats,
// on one P, so every goroutine of the path is counted).
func testClusterSteadyState(t *testing.T, tr func(hs ...transport.Handler) transport.Transport, ceiling clusterCeiling) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	const (
		rate = 20_000
		card = 5_000
		warm = 32
		runs = 8
	)
	keys, err := workload.NewZipfSampler("k", card, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	src := &workload.Source{Name: "cluster-hotpath", Rate: workload.ConstantRate(rate), Keys: keys, Seed: 42}
	batches := make([][]tuple.Tuple, warm+runs)
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
	coord, err := NewCoordinator(tr(shards[0], shards[1]), cfg.BatchInterval, queries)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	eng.SetExecutor(coord)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	step := func(k int) {
		start := tuple.Time(k) * tuple.Second
		if _, err := eng.Step(batches[k], start, start+tuple.Second); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < warm; k++ {
		step(k)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := warm; k < warm+runs; k++ {
		step(k)
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs

	countCeiling := ceiling.count
	if raceEnabled {
		countCeiling = ceiling.raceCount
	}
	note := ""
	if raceEnabled {
		note = ", not checked under -race"
	}
	t.Logf("cluster steady state per batch: %d allocations (ceiling %d), %d KB (ceiling %d KB%s)",
		allocs, countCeiling, bytes>>10, ceiling.bytes>>10, note)
	if allocs > countCeiling {
		t.Errorf("steady-state cluster path allocates %d times per batch, ceiling %d", allocs, countCeiling)
	}
	if bytes > ceiling.bytes && !raceEnabled {
		t.Errorf("steady-state cluster path allocates %d KB per batch, ceiling %d KB", bytes>>10, ceiling.bytes>>10)
	}
	if coord.Down() != 0 {
		t.Error("a shard went down during the measurement")
	}
}
