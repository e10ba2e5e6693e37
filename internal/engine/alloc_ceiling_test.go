package engine

import (
	"testing"

	"prompt/internal/tuple"
	"prompt/internal/window"
)

// TestPromptSteadyStateAllocCeiling pins the steady-state per-batch
// allocation count of the prompt scheme's hot path (Workers = 0, the
// deterministic inline configuration) for rows through Step, which
// transposes them into the engine's reused column batch. The engine first
// processes a warm-up run so the intern dictionary, accumulator arenas,
// and pooled buffers reach their steady shapes; the ceiling then bounds
// what one additional batch allocates.
//
// The ceiling is deliberately generous (several times the ~270
// allocations measured when it was recorded) so noise and modest feature
// growth do not trip it, while an accidental return to per-batch map
// rebuilding or per-key allocation — tens of thousands of allocations —
// fails loudly.
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
		rate    = 20_000
		card    = 5_000
		warm    = 32
		runs    = 8
		ceiling = 2_000 // allocations per batch, steady state
	)
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
	t.Logf("max-reduce steady-state allocations per batch: %.0f (ceiling %d)", avg, ceiling)
	if avg > ceiling {
		t.Errorf("max-reduce steady state allocates %.0f per batch, ceiling %d", avg, ceiling)
	}
}

// TestColumnarSteadyStateAllocCeiling is the columns-edge companion of
// TestPromptSteadyStateAllocCeiling: the same workload handed in as
// caller-built struct-of-arrays batches through StepColumns. The
// accumulator's per-key column buffers and the partitioner's span arenas
// must reach a steady shape under the same ceiling.
func TestColumnarSteadyStateAllocCeiling(t *testing.T) {
	testSteadyStateAllocCeiling(t, "columns")
}

// testSteadyStateAllocCeiling measures the prompt scheme's steady-state
// allocations per batch at one ingest edge: "rows" (Step) or "columns"
// (StepColumns).
func testSteadyStateAllocCeiling(t *testing.T, edge string) {
	t.Helper()
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
	hs := hotPathSchemes()[0]
	if hs.name != "prompt" {
		t.Fatalf("expected prompt scheme first, got %s", hs.name)
	}
	src := hotPathSource(t, "zipf", rate, card)
	batches := hotPathBatches(t, src, warm+runs+1, tuple.Second)
	eng := newHotPathEngine(t, hs, 0)
	cols := make([]*tuple.ColumnBatch, len(batches))
	if edge == "columns" {
		for i, bt := range batches {
			cols[i] = &tuple.ColumnBatch{}
			if err := cols[i].AppendRows(bt, eng.Dict().Intern); err != nil {
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
	for k := 0; k < warm; k++ {
		step(k)
	}
	next := warm
	avg := testing.AllocsPerRun(runs, func() {
		step(next)
		next++
	})
	t.Logf("prompt steady-state allocations per batch (%s): %.0f (ceiling %d)", edge, avg, ceiling)
	if avg > ceiling {
		t.Errorf("steady-state hot path (%s) allocates %.0f per batch, ceiling %d", edge, avg, ceiling)
	}
}
