package engine

import (
	"runtime"
	"testing"

	"prompt/internal/tuple"
	"prompt/internal/window"
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
	testSteadyStateAllocCeiling(t, "rows")
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
	testSteadyStateAllocCeiling(t, "columns")
}

// testSteadyStateAllocCeiling measures the prompt scheme's steady-state
// allocations per batch at one ingest edge: "rows" (Step) or "columns"
// (StepColumns), at the zipf-hot bench shape (50 000 tuples a batch over
// 20 000 Zipf keys). It bounds both the count and the bytes
// (runtime.MemStats.TotalAlloc): a per-batch table sized by the batch
// cardinality — a reference map per block, fresh Map columns — costs few
// allocations but hundreds of kilobytes, which only the byte ceiling sees.
func testSteadyStateAllocCeiling(t *testing.T, edge string) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	const (
		rate        = 50_000
		card        = 20_000
		warm        = 32
		runs        = 8
		byteCeiling = 256 << 10 // bytes per batch, steady state (204 KB measured)
	)
	// Allocations per batch, steady state. Under the race detector the
	// pools drop a quarter of what they are given, so the scratch they
	// hold is rebuilt at random: the count gets a wider bound there and
	// the bytes are only reported.
	countCeiling := uint64(100) // 40 measured
	if raceEnabled {
		countCeiling = 500 // 219–281 measured
	}
	hs := hotPathSchemes()[0]
	if hs.name != "prompt" {
		t.Fatalf("expected prompt scheme first, got %s", hs.name)
	}
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
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	note := ""
	if raceEnabled {
		note = ", not checked under -race"
	}
	t.Logf("prompt steady state per batch (%s): %d allocations (ceiling %d), %d KB (ceiling %d KB%s)",
		edge, allocs, countCeiling, bytes>>10, byteCeiling>>10, note)
	if allocs > countCeiling {
		t.Errorf("steady-state hot path (%s) allocates %d times per batch, ceiling %d", edge, allocs, countCeiling)
	}
	if bytes > byteCeiling && !raceEnabled {
		t.Errorf("steady-state hot path (%s) allocates %d KB per batch, ceiling %d KB", edge, bytes>>10, byteCeiling>>10)
	}
}
