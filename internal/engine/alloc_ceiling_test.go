package engine

import (
	"runtime"
	"slices"
	"testing"

	"prompt/internal/approx"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// TestPromptSteadyStateAllocCeiling pins the steady-state per-batch
// allocations — count and bytes — of the prompt scheme's hot path
// (Workers = 0, the deterministic inline configuration) for rows through
// Step, which transposes them into the engine's reused column batch. The
// engine first processes a warm-up run so the intern dictionary,
// accumulator arenas, block sets and pooled buffers reach their steady
// shapes; the ceilings then bound what one more batch allocates.
//
// The ceilings sit above the figures measured when they were set (about
// 40 allocations and 204 KB a batch): modest growth does not trip them,
// while per-key buffers (hundreds of allocations a batch as keys outgrow
// them) or a per-batch table sized by the batch cardinality (hundreds of
// kilobytes) fail loudly.
func TestPromptSteadyStateAllocCeiling(t *testing.T) {
	testSteadyStateAllocCeiling(t, "prompt", "rows", promptCeiling)
}

// promptCeiling bounds the prompt scheme at either ingest edge: about 40
// allocations and 204 KB a batch were measured when it was set. Under the
// race detector the pools drop a quarter of what they are given, so the
// scratch they hold is rebuilt at random: the count gets a wider bound
// there (219–281 measured) and the bytes are only reported.
var promptCeiling = allocCeiling{count: 100, raceCount: 500, bytes: 256 << 10}

// TestHashSteadyStateAllocCeiling is the same measurement for the hash
// baseline (post-sorted statistics, per-tuple partitioning, hashed
// buckets): the post-sort and the block builder both scatter rows into
// reused arenas, so a per-row or per-key allocation in either fails the
// count.
func TestHashSteadyStateAllocCeiling(t *testing.T) {
	// 32 allocations and 199 KB measured (193 allocations under -race); 588
	// and 216 KB with the post-sort's per-key groups grown row by row,
	// 51 725 and 7 116 KB with a block run grown by append per row.
	testSteadyStateAllocCeiling(t, "hash", "rows", allocCeiling{count: 100, raceCount: 500, bytes: 256 << 10})
}

// TestPK5SteadyStateAllocCeiling is TestHashSteadyStateAllocCeiling for
// PK-5, whose keys split over up to five blocks and whose five candidate
// blocks per key are hashed into reused scratch.
func TestPK5SteadyStateAllocCeiling(t *testing.T) {
	// 32 allocations and 239 KB measured (154 allocations under -race); 588
	// and 257 KB with the post-sort's per-key groups grown row by row,
	// 75 783 and 9 943 KB with a block run grown by append per row and a
	// slice of candidates per key.
	testSteadyStateAllocCeiling(t, "pk5", "rows", allocCeiling{count: 100, raceCount: 500, bytes: 288 << 10})
}

// TestMaxReduceSteadyStateAllocCeiling is the non-invertible companion of
// TestPromptSteadyStateAllocCeiling: a Max-reduce windowed query has no
// inverse, so every batch commit takes window.Aggregator's
// recompute-on-evict path. That path used to rebuild the window's
// state/contrib maps from scratch on each eviction — unsized maps regrown
// key by key, per batch — which this ceiling would catch; with the maps
// cleared and reused in place, the steady state stays within the same
// budget as the invertible hot path.
func TestMaxReduceSteadyStateAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	const (
		rate = 20_000
		card = 5_000
		warm = 32
		runs = 8
	)
	ceiling := 100.0 // allocations per batch, steady state (43 measured)
	if raceEnabled {
		ceiling = 500 // the race detector's pools drop objects (183–245 measured)
	}
	hs := hotPathSchemes()[0]
	src := hotPathSource(t, "zipf", rate, card)
	batches := hotPathBatches(t, src, warm+runs+1, tuple.Second)
	q := Query{
		Name:   "maxcount",
		Map:    CountMap,
		Reduce: window.Max,
		Window: window.Sliding(10*tuple.Second, tuple.Second),
	}
	eng, err := New(hs.config(hotPathConfig(0)), q)
	if err != nil {
		t.Fatal(err)
	}
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
	t.Logf("max-reduce steady-state allocations per batch: %.0f (ceiling %.0f)", avg, ceiling)
	if avg > ceiling {
		t.Errorf("max-reduce steady state allocates %.0f per batch, ceiling %.0f", avg, ceiling)
	}
}

// TestColumnarSteadyStateAllocCeiling is the columns-edge companion of
// TestPromptSteadyStateAllocCeiling: the same workload handed in as
// caller-built struct-of-arrays batches through StepColumns. The
// accumulator's log and row arena and the partitioner's span arenas must
// reach a steady shape under the same ceiling.
func TestColumnarSteadyStateAllocCeiling(t *testing.T) {
	testSteadyStateAllocCeiling(t, "prompt", "columns", promptCeiling)
}

// allocCeiling is a steady-state budget per batch: allocations (count,
// or raceCount under the race detector) and bytes allocated.
type allocCeiling struct {
	count, raceCount, bytes uint64
}

// testSteadyStateAllocCeiling measures one hotPathSchemes scheme's
// steady-state allocations per batch at one ingest edge: "rows" (Step) or
// "columns" (StepColumns), at the zipf-hot bench shape (50 000 tuples a
// batch over 20 000 Zipf keys). It bounds both the count and the bytes
// (runtime.MemStats.TotalAlloc): a per-batch table sized by the batch
// cardinality — a reference map per block, fresh Map columns — costs few
// allocations but hundreds of kilobytes, which only the byte ceiling sees.
func testSteadyStateAllocCeiling(t *testing.T, scheme, edge string, ceiling allocCeiling) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	const (
		rate = 50_000
		card = 20_000
		warm = 32
		runs = 8
	)
	countCeiling := ceiling.count
	if raceEnabled {
		countCeiling = ceiling.raceCount
	}
	i := slices.IndexFunc(hotPathSchemes(), func(hs hotPathScheme) bool { return hs.name == scheme })
	if i < 0 {
		t.Fatalf("no hot-path scheme %q", scheme)
	}
	hs := hotPathSchemes()[i]
	src := hotPathSource(t, "zipf", rate, card)
	batches := hotPathBatches(t, src, warm+runs, tuple.Second)
	eng := newHotPathEngine(t, hs, 0)
	cols := make([]*tuple.ColumnBatch, len(batches))
	if edge == "columns" {
		for i, bt := range batches {
			cols[i] = &tuple.ColumnBatch{}
			if err := cols[i].Transpose(bt, eng.Dict()); err != nil {
				t.Fatal(err)
			}
		}
	}
	step := func(k int) {
		start := tuple.Time(k) * tuple.Second
		var err error
		if edge == "rows" {
			_, err = eng.Step(batches[k], start, start+tuple.Second)
		} else {
			_, err = eng.StepColumns(cols[k], start, start+tuple.Second)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs, bytes := steadyStatePerBatch(warm, runs, step)
	checkSteadyState(t, scheme+" ("+edge+")", allocs, bytes, countCeiling, ceiling.bytes)
}

// steadyStatePerBatch runs step over batches 0..warm-1, then returns the
// mean allocations and bytes (runtime.MemStats.TotalAlloc) of each of the
// next runs batches.
func steadyStatePerBatch(warm, runs int, step func(k int)) (allocs, bytes uint64) {
	// One P from the warm-up on, as testing.AllocsPerRun measures: the
	// pools are per P, and a goroutine that changes P misses the scratch
	// its old P holds.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for k := 0; k < warm; k++ {
		step(k)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := warm; k < warm+runs; k++ {
		step(k)
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// checkSteadyState logs one steady-state measurement and fails it past
// its ceilings. The byte ceiling is not checked under the race detector.
func checkSteadyState(t *testing.T, what string, allocs, bytes, countCeiling, byteCeiling uint64) {
	t.Helper()
	note := ""
	if raceEnabled {
		note = ", not checked under -race"
	}
	t.Logf("%s steady state per batch: %d allocations (ceiling %d), %d KB (ceiling %d KB%s)",
		what, allocs, countCeiling, bytes>>10, byteCeiling>>10, note)
	if allocs > countCeiling {
		t.Errorf("%s steady state allocates %d times per batch, ceiling %d", what, allocs, countCeiling)
	}
	if bytes > byteCeiling && !raceEnabled {
		t.Errorf("%s steady state allocates %d KB per batch, ceiling %d KB", what, bytes>>10, byteCeiling>>10)
	}
}

// TestStateChurnSteadyStateAllocCeiling bounds the steady-state
// allocations — count and bytes — of a batch at the state-churn bench
// shape: 10 000 tuples a batch over 30 000 Zipf(0.8) keys, a sliding sum
// and a Count-Min approximate tier folded at every commit. The
// estimator's fold order, and the key and value columns it folds, are
// reused batch to batch; scratch sized by the batch's keys (tens of
// bytes per key, a few thousand keys) fails the byte ceiling. What is
// left is mostly the two Count-Min sketches a commit builds, the batch's
// partial and the rebuilt window summary.
func TestStateChurnSteadyStateAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	const (
		rate        = 10_000
		card        = 30_000
		warm        = 32
		runs        = 8
		byteCeiling = 352 << 10 // bytes per batch, steady state (259–305 KB measured; 458 KB with per-batch sort scratch)
	)
	countCeiling := uint64(100) // 47–51 measured
	if raceEnabled {
		countCeiling = 500 // 213–279 measured
	}
	keys, err := workload.NewZipfSampler("k", card, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	src := &workload.Source{Name: "state-churn", Rate: workload.ConstantRate(rate), Keys: keys, Seed: 42}
	batches := hotPathBatches(t, src, warm+runs, tuple.Second)
	cfg := hotPathSchemes()[0].config(hotPathConfig(0))
	cfg.Approx = approx.Spec{Kind: approx.CountMinKind}
	eng, err := New(cfg, SumQuery("sum", window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	allocs, bytes := steadyStatePerBatch(warm, runs, func(k int) {
		start := tuple.Time(k) * tuple.Second
		if _, err := eng.Step(batches[k], start, start+tuple.Second); err != nil {
			t.Fatal(err)
		}
	})
	checkSteadyState(t, "state-churn", allocs, bytes, countCeiling, byteCeiling)
}
