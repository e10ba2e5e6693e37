package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"prompt/internal/tuple"
	"prompt/internal/window"
)

// scrubWallClock zeroes the report fields derived from measured wall time
// (partitioning overhead and everything downstream of it). The remaining
// fields — batch statistics, quality metrics, simulated stage times,
// bucket sizes — must be bit-identical at any worker count.
func scrubWallClock(reps []BatchReport) []BatchReport {
	out := append([]BatchReport(nil), reps...)
	for i := range out {
		out[i].PartitionTime = 0
		out[i].PartitionOverflow = 0
		out[i].ProcessingTime = 0
		out[i].QueueWait = 0
		out[i].Latency = 0
		out[i].W = 0
		out[i].Stable = false
	}
	return out
}

// runWorkers runs n word-count batches over the same deterministic source
// with the given worker setting and returns the reports plus the final
// window answer.
func runWorkers(t *testing.T, workers, n int) ([]BatchReport, map[string]float64) {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(20000, 200, 42)
	reports, err := eng.RunBatches(src, n)
	if err != nil {
		t.Fatal(err)
	}
	return reports, eng.WindowSnapshot()
}

func TestParallelReportsMatchSequential(t *testing.T) {
	// The acceptance invariant: Workers changes wall-clock time only.
	// Workers=0 (inline driver), 1, and 8 must produce identical
	// BatchReports and window answers once measured wall time is scrubbed.
	refReps, refWin := runWorkers(t, 0, 5)
	ref := scrubWallClock(refReps)
	for _, workers := range []int{1, 3, 8, -1} {
		reps, win := runWorkers(t, workers, 5)
		if got := scrubWallClock(reps); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: reports diverge from sequential driver\n got: %+v\nwant: %+v",
				workers, got, ref)
		}
		if !reflect.DeepEqual(win, refWin) {
			t.Fatalf("workers=%d: window answer diverges", workers)
		}
	}
}

// skewedBatch builds one second of word-count tuples over keys distinct
// keys, 40 % of them drawn from a small hot set.
func skewedBatch(n, keys int) []tuple.Tuple {
	rng := rand.New(rand.NewSource(31))
	ts := make([]tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		j := rng.Intn(keys)
		if rng.Float64() < 0.4 {
			j = rng.Intn(1 + keys/20)
		}
		at := tuple.Time(int64(i) * int64(tuple.Second) / int64(n))
		ts = append(ts, tuple.NewTuple(at, fmt.Sprintf("k%d", j), 1))
	}
	return ts
}

// stepWorkers runs one skewed batch through an engine with 8 Map and 8
// Reduce tasks on the given worker setting.
func stepWorkers(t *testing.T, ts []tuple.Tuple, workers int) (*Engine, BatchReport) {
	t.Helper()
	cfg := testConfig()
	cfg.MapTasks, cfg.ReduceTasks, cfg.Cores = 8, 8, 8
	cfg.Workers = workers
	eng, err := New(cfg, Query{Name: "wc", Map: CountMap, Reduce: window.Sum})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Step(ts, 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	return eng, rep
}

func TestRunLiveMatchesSimulatedResults(t *testing.T) {
	// Map and Reduce run as real goroutines on the engine's pool: the
	// per-key answer must equal a direct count over the batch, the buckets
	// must hold every tuple, and the report must match the inline driver's.
	ts := skewedBatch(20000, 300)
	eng, rep := stepWorkers(t, ts, 4)

	want := map[string]float64{}
	for i := range ts {
		want[ts[i].Key]++
	}
	got := eng.LastResult()
	if len(got) != len(want) {
		t.Fatalf("result has %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %s = %v, want %v", k, got[k], v)
		}
	}
	if rep.MapTasks != 8 || len(rep.BucketSizes) != 8 {
		t.Errorf("task counts: %d map, %d reduce buckets", rep.MapTasks, len(rep.BucketSizes))
	}
	total := 0
	for _, s := range rep.BucketSizes {
		total += s
	}
	if total != len(ts) {
		t.Errorf("bucket sizes sum to %d, want %d", total, len(ts))
	}

	_, seq := stepWorkers(t, ts, 0)
	if !reflect.DeepEqual(scrubWallClock([]BatchReport{rep}), scrubWallClock([]BatchReport{seq})) {
		t.Errorf("pool report diverges from inline driver\n got: %+v\nwant: %+v", rep, seq)
	}
}

func TestRunLiveWorkerDefault(t *testing.T) {
	// Workers=-1 sizes the pool to GOMAXPROCS and still answers exactly.
	ts := skewedBatch(1000, 50)
	eng, _ := stepWorkers(t, ts, -1)
	if got, want := eng.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", got, want)
	}
	want := map[string]float64{}
	for i := range ts {
		want[ts[i].Key]++
	}
	if got := eng.LastResult(); !reflect.DeepEqual(got, want) {
		t.Fatalf("workers=-1 result diverges from a direct count")
	}
}

func TestSetWorkersMidRun(t *testing.T) {
	// Switching the worker pool between batches must not perturb results:
	// a run that toggles 0 -> 8 -> 1 -> GOMAXPROCS matches a pure
	// sequential run batch for batch.
	cfg := testConfig()
	ref, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	refSrc := testSource(15000, 150, 9)
	refReps, err := ref.RunBatches(refSrc, 8)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(15000, 150, 9)
	var got []BatchReport
	for _, step := range []struct {
		workers int
		batches int
	}{{0, 2}, {8, 2}, {1, 2}, {-1, 2}} {
		if err := eng.SetWorkers(step.workers); err != nil {
			t.Fatal(err)
		}
		reps, err := eng.RunBatches(src, step.batches)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, reps...)
	}
	if !reflect.DeepEqual(scrubWallClock(got), scrubWallClock(refReps)) {
		t.Fatal("mid-run SetWorkers changed report contents")
	}
	if !reflect.DeepEqual(eng.WindowSnapshot(), ref.WindowSnapshot()) {
		t.Fatal("mid-run SetWorkers changed the window answer")
	}
}

func TestSetParallelismAndCoresMidRunParallel(t *testing.T) {
	// Reconfiguring simulated parallelism while running on a real worker
	// pool must behave exactly like the sequential driver doing the same
	// transitions.
	transitions := func(eng *Engine) error {
		if err := eng.SetParallelism(8, 8); err != nil {
			return err
		}
		return eng.SetCores(8)
	}
	run := func(workers int) []BatchReport {
		cfg := testConfig()
		cfg.Workers = workers
		eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
		if err != nil {
			t.Fatal(err)
		}
		src := testSource(15000, 150, 21)
		first, err := eng.RunBatches(src, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := transitions(eng); err != nil {
			t.Fatal(err)
		}
		rest, err := eng.RunBatches(src, 3)
		if err != nil {
			t.Fatal(err)
		}
		return append(first, rest...)
	}
	ref := run(0)
	if ref[0].MapTasks != 4 || ref[len(ref)-1].MapTasks != 8 {
		t.Fatalf("transition not reflected in reports: %d -> %d tasks", ref[0].MapTasks, ref[len(ref)-1].MapTasks)
	}
	got := run(6)
	if !reflect.DeepEqual(scrubWallClock(got), scrubWallClock(ref)) {
		t.Fatal("parallel driver diverges from sequential across SetParallelism/SetCores transitions")
	}
}

func TestSetWorkersReflectsPoolSize(t *testing.T) {
	eng, err := New(testConfig(), WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Workers(); got != 1 {
		t.Fatalf("default Workers() = %d, want 1 (inline driver)", got)
	}
	if err := eng.SetWorkers(5); err != nil {
		t.Fatal(err)
	}
	if got := eng.Workers(); got != 5 {
		t.Fatalf("after SetWorkers(5): Workers() = %d", got)
	}
	if err := eng.SetWorkers(0); err != nil {
		t.Fatal(err)
	}
	if got := eng.Workers(); got != 1 {
		t.Fatalf("after SetWorkers(0): Workers() = %d, want 1", got)
	}
}

func TestMultiQueryParallelMatchesSequential(t *testing.T) {
	// Concurrent per-query jobs behind the driver barrier must reproduce
	// the sequential multi-query run, including straggler-sensitive task
	// numbering (exercised indirectly: stage times are part of the report).
	queries := []Query{
		WordCount(window.Sliding(10*tuple.Second, tuple.Second)),
		SumQuery("sum", window.Sliding(5*tuple.Second, tuple.Second)),
		WordCount(window.Spec{}),
	}
	run := func(workers int) ([]BatchReport, []map[string]float64) {
		cfg := testConfig()
		cfg.Workers = workers
		eng, err := NewMulti(cfg, queries)
		if err != nil {
			t.Fatal(err)
		}
		src := testSource(15000, 120, 33)
		reps, err := eng.RunBatches(src, 4)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]map[string]float64, len(queries))
		for i := range queries {
			results[i] = eng.LastResultOf(i)
		}
		return reps, results
	}
	refReps, refRes := run(0)
	gotReps, gotRes := run(8)
	if !reflect.DeepEqual(scrubWallClock(gotReps), scrubWallClock(refReps)) {
		t.Fatal("multi-query parallel reports diverge from sequential")
	}
	if !reflect.DeepEqual(gotRes, refRes) {
		t.Fatal("multi-query parallel results diverge from sequential")
	}
}
