package engine

import (
	"reflect"
	"testing"

	"prompt/internal/metrics"
	"prompt/internal/tuple"
	"prompt/internal/window"
)

// recordingObserver captures every lifecycle event in order.
type recordingObserver struct {
	metrics.NopObserver
	starts     []metrics.BatchStart
	stages     []metrics.StageEnd
	ends       []metrics.BatchEnd
	retries    []metrics.TaskRetry
	recoveries []metrics.Recovery
}

func (r *recordingObserver) OnBatchStart(b metrics.BatchStart) { r.starts = append(r.starts, b) }
func (r *recordingObserver) OnStageEnd(s metrics.StageEnd)     { r.stages = append(r.stages, s) }
func (r *recordingObserver) OnBatchEnd(b metrics.BatchEnd)     { r.ends = append(r.ends, b) }
func (r *recordingObserver) OnTaskRetry(e metrics.TaskRetry)   { r.retries = append(r.retries, e) }
func (r *recordingObserver) OnRecovery(e metrics.Recovery)     { r.recoveries = append(r.recoveries, e) }

func runObserved(t *testing.T, obs Observer, workers, n int) ([]BatchReport, *Engine) {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	cfg.Observer = obs
	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(8000, 80, 11)
	reports, err := eng.RunBatches(src, n)
	if err != nil {
		t.Fatal(err)
	}
	return reports, eng
}

func TestObserverLifecycleEvents(t *testing.T) {
	rec := &recordingObserver{}
	reports, _ := runObserved(t, rec, 0, 3)

	if len(rec.starts) != 3 || len(rec.ends) != 3 {
		t.Fatalf("got %d batch starts, %d batch ends, want 3 each", len(rec.starts), len(rec.ends))
	}
	wantStages := []string{"accumulate", "partition", "process", "recover", "commit"}
	if len(rec.stages) != 3*len(wantStages) {
		t.Fatalf("got %d stage events, want %d", len(rec.stages), 3*len(wantStages))
	}
	for bi := 0; bi < 3; bi++ {
		if rec.starts[bi].Batch != bi || rec.ends[bi].Batch != bi {
			t.Errorf("batch event indices out of order: start=%d end=%d want %d",
				rec.starts[bi].Batch, rec.ends[bi].Batch, bi)
		}
		for si, want := range wantStages {
			ev := rec.stages[bi*len(wantStages)+si]
			if ev.Batch != bi || ev.Stage != want {
				t.Errorf("stage event %d/%d = {batch %d, %q}, want {batch %d, %q}",
					bi, si, ev.Batch, ev.Stage, bi, want)
			}
		}
		// The per-stage simulated timings must match the report exactly.
		rep := reports[bi]
		partEv := rec.stages[bi*len(wantStages)+1]
		procEv := rec.stages[bi*len(wantStages)+2]
		if partEv.Simulated != rep.PartitionTime {
			t.Errorf("batch %d partition stage simulated %v != report %v", bi, partEv.Simulated, rep.PartitionTime)
		}
		if procEv.Simulated != rep.ProcessingTime {
			t.Errorf("batch %d process stage simulated %v != report %v", bi, procEv.Simulated, rep.ProcessingTime)
		}
		if rec.ends[bi].Tuples != rep.Tuples || rec.ends[bi].Keys != rep.Keys ||
			rec.ends[bi].Stable != rep.Stable || rec.ends[bi].Processing != rep.ProcessingTime {
			t.Errorf("batch %d end event %+v disagrees with report", bi, rec.ends[bi])
		}
	}
}

func TestObserverDoesNotChangeReports(t *testing.T) {
	for _, workers := range []int{0, 4} {
		plain, _ := runObserved(t, nil, workers, 4)
		observed, _ := runObserved(t, metrics.NewCollector(), workers, 4)
		if !reflect.DeepEqual(scrubWallClock(observed), scrubWallClock(plain)) {
			t.Errorf("workers=%d: registering an observer changed the reports", workers)
		}
	}
}

func TestCollectorAggregatesPerStage(t *testing.T) {
	col := metrics.NewCollector()
	_, _ = runObserved(t, col, 0, 5)

	snap := col.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("collector saw %d stages, want 5: %+v", len(snap), snap)
	}
	order := []string{"accumulate", "partition", "process", "recover", "commit"}
	for i, st := range snap {
		if st.Stage != order[i] {
			t.Errorf("snapshot[%d] = %q, want %q", i, st.Stage, order[i])
		}
		if st.Count != 5 {
			t.Errorf("stage %s count = %d, want 5", st.Stage, st.Count)
		}
		if st.WallMin > st.WallMean || st.WallMean > st.WallMax {
			t.Errorf("stage %s wall aggregates out of order: %+v", st.Stage, st)
		}
		if st.SimMin > st.SimMean || st.SimMean > st.SimMax {
			t.Errorf("stage %s simulated aggregates out of order: %+v", st.Stage, st)
		}
	}
	sum := col.Summary()
	if sum.Batches != 5 || sum.Tuples == 0 {
		t.Errorf("collector summary = %+v, want 5 batches with tuples", sum)
	}
}

func TestSetObserverMidRun(t *testing.T) {
	cfg := testConfig()
	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(8000, 80, 13)
	if _, err := eng.RunBatches(src, 2); err != nil {
		t.Fatal(err)
	}
	col := metrics.NewCollector()
	eng.SetObserver(col)
	if eng.Observer() == nil {
		t.Fatal("Observer() nil after SetObserver")
	}
	if _, err := eng.RunBatches(src, 3); err != nil {
		t.Fatal(err)
	}
	if got := col.Summary().Batches; got != 3 {
		t.Errorf("collector saw %d batches, want only the 3 after SetObserver", got)
	}
	eng.SetObserver(nil)
	if _, err := eng.RunBatches(src, 1); err != nil {
		t.Fatal(err)
	}
	if got := col.Summary().Batches; got != 3 {
		t.Errorf("collector saw %d batches after removal, want 3", got)
	}
}

// TestPipelineZeroAllocWithoutObserver pins the acceptance criterion that
// an unobserved pipeline adds nothing to the hot path: with no observer
// registered, the stage harness itself (runStage minus the stage's own
// work) performs zero allocations and emits nothing.
func TestPipelineZeroAllocWithoutObserver(t *testing.T) {
	// A no-op stage isolates the harness overhead from the stages' own
	// (observer-independent) allocations.
	calls := 0
	noop := func(*BatchContext) error { calls++; return nil }
	bc := &BatchContext{Index: 7, Cols: &tuple.ColumnBatch{}, PartitionTime: 5}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := runStage(nil, bc, StagePartition, noop); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("unobserved stage harness allocates %.1f objects per stage, want 0", allocs)
	}
	if calls == 0 {
		t.Fatal("unobserved harness never ran the stage")
	}

	// Control: with an observer the same harness emits the stage's event,
	// carrying the simulated time the stage charged.
	rec := &recordingObserver{}
	if err := runStage(rec, bc, StagePartition, noop); err != nil {
		t.Fatal(err)
	}
	if len(rec.stages) != 1 {
		t.Fatalf("observed harness emitted %d stage events, want 1", len(rec.stages))
	}
	if ev := rec.stages[0]; ev.Batch != 7 || ev.Stage != string(StagePartition) || ev.Simulated != 5 {
		t.Errorf("observed stage event = %+v, want batch 7, partition, simulated 5", ev)
	}
}

// BenchmarkBatchPipeline is the CI smoke benchmark: one full staged
// pipeline pass per iteration over a 100k-tuple batch.
func BenchmarkBatchPipeline(b *testing.B) {
	cfg := testConfig()
	cfg.ValidateBatches = false
	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		b.Fatal(err)
	}
	src := testSource(100000, 1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunBatches(src, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchPipelineObserved measures the same pass with the built-in
// collector attached, quantifying the observer overhead.
func BenchmarkBatchPipelineObserved(b *testing.B) {
	cfg := testConfig()
	cfg.ValidateBatches = false
	cfg.Observer = metrics.NewCollector()
	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		b.Fatal(err)
	}
	src := testSource(100000, 1000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunBatches(src, 1); err != nil {
			b.Fatal(err)
		}
	}
}
