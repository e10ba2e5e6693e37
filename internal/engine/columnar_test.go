package engine

import (
	"bytes"
	"reflect"
	"testing"

	"prompt/internal/fault"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// stepEdge processes the source's next interval through one of the
// engine's two edges: rows through Step, or — columns true — a pooled
// column batch built against the engine's dictionary through StepColumns,
// exercising the recycle discipline.
func stepEdge(t *testing.T, eng *Engine, src *workload.Source, columns bool) {
	t.Helper()
	start := eng.Now()
	end := start + eng.Config().BatchInterval
	tuples, err := src.Slice(start, end)
	if err != nil {
		t.Fatal(err)
	}
	if columns {
		cb := tuple.GetColumnBatch()
		if err = cb.Transpose(tuples, eng.Dict()); err == nil {
			_, err = eng.StepColumns(cb, start, end)
		}
		tuple.PutColumnBatch(cb)
	} else {
		_, err = eng.Step(tuples, start, end)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// runEdge drives n prompt-scheme batches through one edge and returns the
// reports plus the window answer.
func runEdge(t *testing.T, workers, n int, columns bool, mutate func(*Config)) ([]BatchReport, map[string]float64) {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(10000, 120, 77)
	for i := 0; i < n; i++ {
		stepEdge(t, eng, src, columns)
	}
	return eng.Reports(), eng.WindowSnapshot()
}

// TestGoldenColumnarFaulted runs the column edge under a scripted fault
// plan — an executor kill, a straggler, and a lost output with recovery —
// and requires the faulted reports and window to match the row edge's
// exactly. The batch store replicates the column batch and the recovery
// replays it, so recompute equivalence is part of the contract.
func TestGoldenColumnarFaulted(t *testing.T) {
	freezeClock(t)
	plan, err := fault.ParsePlan("kill@1:cores=2;straggle@2:stage=map,factor=8,task=1;lose@3:fails=1")
	if err != nil {
		t.Fatal(err)
	}
	withFaults := func(cfg *Config) { cfg.Faults = plan }
	for _, workers := range []int{0, 4} {
		refReps, refWin := runEdge(t, workers, 5, false, withFaults)
		gotReps, gotWin := runEdge(t, workers, 5, true, withFaults)
		if refReps[3].RecoveryAttempts == 0 {
			t.Fatalf("workers %d: the scripted loss at batch 3 recovered nothing", workers)
		}
		if !reflect.DeepEqual(gotReps, refReps) {
			t.Errorf("workers %d: faulted column-edge reports diverge from the row edge", workers)
		}
		if !reflect.DeepEqual(gotWin, refWin) {
			t.Errorf("workers %d: faulted column-edge window diverges from the row edge", workers)
		}
	}
}

// TestGoldenColumnarCheckpointRestore checkpoints an engine fed through
// the column edge mid-stream, restores it, and continues through the same
// edge; the stitched run must match an uninterrupted row-edge run batch
// for batch. The restored dictionary must keep every already-issued key ID
// stable for the caller-built columns to stay meaningful.
func TestGoldenColumnarCheckpointRestore(t *testing.T) {
	freezeClock(t)
	const batches, ckptAt = 6, 3
	cfg := testConfig()
	refReps, refWin := runEdge(t, 0, batches, false, nil)

	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(10000, 120, 77)
	for i := 0; i < ckptAt; i++ {
		stepEdge(t, eng, src, true)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(cfg, []Query{WordCount(window.Sliding(10*tuple.Second, tuple.Second))}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := ckptAt; i < batches; i++ {
		stepEdge(t, restored, src, true)
	}
	if !reflect.DeepEqual(restored.Reports(), refReps) {
		t.Error("column-edge checkpoint/restore reports diverge from uninterrupted row-edge run")
	}
	if !reflect.DeepEqual(restored.WindowSnapshot(), refWin) {
		t.Error("column-edge checkpoint/restore window diverges from uninterrupted row-edge run")
	}
}
