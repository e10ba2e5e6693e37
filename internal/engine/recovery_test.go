package engine

import (
	"reflect"
	"testing"

	"prompt/internal/intern"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// storeBatch is a one-row column batch for [start, end) with key ID id.
func storeBatch(start, end tuple.Time, id uint32) *tuple.ColumnBatch {
	cb := &tuple.ColumnBatch{Start: start, End: end}
	cb.Append(id, start, 1, 1)
	return cb
}

func TestBatchStoreEviction(t *testing.T) {
	s := NewBatchStore(2*tuple.Second, intern.NewDict(0))
	for i := 0; i < 5; i++ {
		s.Put(i, storeBatch(tuple.Time(i)*tuple.Second, tuple.Time(i+1)*tuple.Second, 0))
	}
	// At now=5s with retain 2s, batches ending at <= 3s are gone.
	if s.Len() != 2 {
		t.Errorf("store holds %d batches, want 2", s.Len())
	}
	if _, ok := s.Get(0); ok {
		t.Error("expired batch still retrievable")
	}
	if b, ok := s.Get(4); !ok || b.Start != 4*tuple.Second || b.End != 5*tuple.Second {
		t.Errorf("Get(4) = %+v, %v", b, ok)
	}
}

func TestBatchStoreCopiesInput(t *testing.T) {
	s := NewBatchStore(tuple.Minute, intern.NewDict(0))
	in := storeBatch(0, tuple.Second, 3)
	s.Put(0, in)
	in.IDs[0] = 9
	got, ok := s.Get(0)
	if !ok || got.IDs[0] != 3 {
		t.Error("store shared the caller's buffer")
	}
}

func TestRecomputeUnknownBatch(t *testing.T) {
	s := NewBatchStore(tuple.Minute, intern.NewDict(0))
	if _, err := s.Recompute(7, Config{}, Query{}); err == nil {
		t.Error("recompute of unknown batch succeeded")
	}
}

func TestRecoverableEngineExactlyOnce(t *testing.T) {
	cfg := testConfig()
	q := WordCount(window.Sliding(5*tuple.Second, tuple.Second))
	re, err := NewRecoverable(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(5000, 100, 23)

	// Process batches, remembering each output.
	originals := make([]map[string]float64, 0, 4)
	for i := 0; i < 4; i++ {
		start := re.Now()
		end := start + cfg.BatchInterval
		ts, err := src.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := re.Step(ts, start, end); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64, len(re.LastResult()))
		for k, v := range re.LastResult() {
			out[k] = v
		}
		originals = append(originals, out)
	}

	// Simulate losing batch 2's state and recover it: the recomputed
	// output must be identical (exactly-once at batch granularity).
	recovered, err := re.Recover(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != len(originals[2]) {
		t.Fatalf("recovered %d keys, want %d", len(recovered), len(originals[2]))
	}
	for k, v := range originals[2] {
		if recovered[k] != v {
			t.Errorf("key %s recovered as %v, want %v", k, recovered[k], v)
		}
	}

	// Recovery must not disturb the live engine: next batch continues.
	start := re.Now()
	end := start + cfg.BatchInterval
	ts, err := src.Slice(start, end)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.Step(ts, start, end); err != nil {
		t.Fatalf("engine disturbed by recovery: %v", err)
	}
}

func TestRecoverableRetainTracksWindow(t *testing.T) {
	cfg := testConfig()
	q := WordCount(window.Sliding(3*tuple.Second, tuple.Second))
	re, err := NewRecoverable(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(1000, 20, 29)
	for i := 0; i < 6; i++ {
		start := re.Now()
		end := start + cfg.BatchInterval
		ts, err := src.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := re.Step(ts, start, end); err != nil {
			t.Fatal(err)
		}
	}
	// Retain = window length (3 s): exactly 3 batches replicated.
	if re.Store.Len() != 3 {
		t.Errorf("store holds %d batches, want 3", re.Store.Len())
	}
	// A batch outside the window cannot be recovered — and never needs to
	// be, since its output no longer contributes to any answer.
	if _, err := re.Recover(0); err == nil {
		t.Error("recovered a batch that exited the window")
	}
}

// TestRecoverableEngineReplicatesEveryEdge: a RecoverableEngine's store is
// the engine's own replication point, so every edge and driver leaves
// every batch still inside the window recoverable — RunBatches inline and
// pipelined, StepColumns, and a fault-planned engine whose plan built the
// store — and each recovery is bit-identical to the batch's original
// output.
func TestRecoverableEngineReplicatesEveryEdge(t *testing.T) {
	const n = 4
	q := WordCount(window.Sliding(8*tuple.Second, tuple.Second))
	src := func() *workload.Source { return testSource(4000, 60, 31) }

	// Reference: each batch's output from a plain, unreplicated engine.
	ref, err := New(testConfig(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]map[string]float64, n)
	refSrc := src()
	for i := range want {
		start := ref.Now()
		ts, err := refSrc.Slice(start, start+tuple.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Step(ts, start, start+tuple.Second); err != nil {
			t.Fatal(err)
		}
		want[i] = ref.LastResult()
	}

	runBatches := func(re *RecoverableEngine) error {
		_, err := re.RunBatches(src(), n)
		return err
	}
	for _, tc := range []struct {
		name   string
		config func(Config) Config
		drive  func(*RecoverableEngine) error
	}{
		{"run-depth1", func(c Config) Config { return c }, runBatches},
		{"run-depth2", func(c Config) Config { c.PipelineDepth = 2; return c }, runBatches},
		{"step-columns", func(c Config) Config { return c }, func(re *RecoverableEngine) error {
			s := src()
			for i := 0; i < n; i++ {
				start := re.Now()
				ts, err := s.Slice(start, start+tuple.Second)
				if err != nil {
					return err
				}
				cb := &tuple.ColumnBatch{}
				if err := cb.Transpose(ts, re.Dict()); err != nil {
					return err
				}
				if _, err := re.StepColumns(cb, start, start+tuple.Second); err != nil {
					return err
				}
			}
			return nil
		}},
		{"faults", func(c Config) Config {
			c.Faults = mustPlan(t, "lose@2:fails=1;straggle@1:factor=3")
			return c
		}, runBatches},
	} {
		t.Run(tc.name, func(t *testing.T) {
			re, err := NewRecoverable(tc.config(testConfig()), q)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.drive(re); err != nil {
				t.Fatal(err)
			}
			if got := re.Store.Len(); got != n {
				t.Errorf("store holds %d batches, want %d", got, n)
			}
			for i := 0; i < n; i++ {
				got, err := re.Recover(i)
				if err != nil {
					t.Fatalf("batch %d: %v", i, err)
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("batch %d: recovered output differs from the original", i)
				}
			}
		})
	}
}
