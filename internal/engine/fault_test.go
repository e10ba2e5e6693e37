package engine

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"prompt/internal/fault"
	"prompt/internal/metrics"
	"prompt/internal/tuple"
	"prompt/internal/window"
)

// runFaulted drives n word-count batches with the given fault plan and
// returns the reports and final window answer. The clock is frozen by the
// caller so every report field is deterministic.
func runFaulted(t *testing.T, plan *fault.Plan, retry fault.RetryPolicy, workers, n int) ([]BatchReport, map[string]float64, *Engine) {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	cfg.Faults = plan
	cfg.Retry = retry
	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(8000, 80, 21)
	reports, err := eng.RunBatches(src, n)
	if err != nil {
		t.Fatal(err)
	}
	return reports, eng.WindowSnapshot(), eng
}

func mustPlan(t *testing.T, s string) *fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFaultsDoNotChangeResults is the engine-level recovery invariant:
// with the clock frozen, a run under any fault plan produces exactly the
// fault-free windows and per-batch input statistics — only the simulated
// timings (and the failure counters) may differ — at any worker count.
func TestFaultsDoNotChangeResults(t *testing.T) {
	freezeClock(t)
	const n = 6
	plans := []string{
		"kill@1:node=0,cores=2,after=2ms",
		"straggle@2:stage=map,factor=8;straggle@3:stage=reduce,factor=5,task=1",
		"lose@2:fails=1;kill@4:cores=1,after=0s;straggle@1:factor=3",
	}
	for _, workers := range []int{0, 4} {
		cleanReps, cleanWin, _ := runFaulted(t, nil, fault.RetryPolicy{}, workers, n)
		for _, ps := range plans {
			reps, win, _ := runFaulted(t, mustPlan(t, ps), fault.RetryPolicy{}, workers, n)
			if !reflect.DeepEqual(win, cleanWin) {
				t.Errorf("workers=%d plan %q: window answer diverged from fault-free run", workers, ps)
			}
			if len(reps) != len(cleanReps) {
				t.Fatalf("workers=%d plan %q: %d reports, want %d", workers, ps, len(reps), n)
			}
			for i := range reps {
				if reps[i].Tuples != cleanReps[i].Tuples || reps[i].Keys != cleanReps[i].Keys {
					t.Errorf("workers=%d plan %q batch %d: input statistics changed", workers, ps, i)
				}
				if !reflect.DeepEqual(reps[i].BucketSizes, cleanReps[i].BucketSizes) {
					t.Errorf("workers=%d plan %q batch %d: bucket sizes changed", workers, ps, i)
				}
			}
		}
	}
}

// TestFaultRunsDeterministicAcrossWorkers pins the stronger property: the
// full report slices of a faulted run are bit-identical at any worker
// count, failure counters and recovery timings included.
func TestFaultRunsDeterministicAcrossWorkers(t *testing.T) {
	freezeClock(t)
	plan := mustPlan(t, "seed=9;kill@1:cores=2,after=1ms;straggle@2:factor=6;lose@3:fails=1")
	ref, refWin, _ := runFaulted(t, plan, fault.RetryPolicy{}, 0, 5)
	got, gotWin, _ := runFaulted(t, plan, fault.RetryPolicy{}, 4, 5)
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("faulted reports differ between workers 0 and 4:\n got: %+v\nwant: %+v", got, ref)
	}
	if !reflect.DeepEqual(gotWin, refWin) {
		t.Error("faulted window answers differ between workers 0 and 4")
	}
}

func TestKillShrinksCoreSetUntilReprovisioned(t *testing.T) {
	freezeClock(t)
	cfg := testConfig()
	cfg.Faults = mustPlan(t, "kill@1:node=1,cores=2,after=1ms")
	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(8000, 80, 21)
	reps, err := eng.RunBatches(src, 4)
	if err != nil {
		t.Fatal(err)
	}

	if reps[0].Cores != 4 || reps[0].CoresLost != 0 {
		t.Errorf("batch 0 before the kill: cores=%d lost=%d, want 4/0", reps[0].Cores, reps[0].CoresLost)
	}
	// The kill fires during batch 1's Map stage: the batch starts on the
	// full set but commits with the cores gone.
	if reps[1].Cores != 4 || reps[1].CoresLost != 2 {
		t.Errorf("killed batch: cores=%d lost=%d, want 4/2", reps[1].Cores, reps[1].CoresLost)
	}
	if reps[1].TaskRetries == 0 {
		t.Error("kill mid-stage retried no tasks (all 4 tasks of 4 cores should be in flight at 1ms)")
	}
	// Subsequent batches schedule on the survivors until SetCores.
	for _, i := range []int{2, 3} {
		if reps[i].Cores != 2 || reps[i].CoresLost != 2 {
			t.Errorf("batch %d after the kill: cores=%d lost=%d, want 2/2", i, reps[i].Cores, reps[i].CoresLost)
		}
	}
	if eng.CoresLost() != 2 {
		t.Errorf("CoresLost() = %d, want 2", eng.CoresLost())
	}
	// Re-provisioning restores the full set.
	if err := eng.SetCores(4); err != nil {
		t.Fatal(err)
	}
	more, err := eng.RunBatches(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	if more[0].Cores != 4 || more[0].CoresLost != 0 {
		t.Errorf("after SetCores: cores=%d lost=%d, want 4/0", more[0].Cores, more[0].CoresLost)
	}
}

func TestStraggleInflatesProcessingOnly(t *testing.T) {
	freezeClock(t)
	clean, _, _ := runFaulted(t, nil, fault.RetryPolicy{}, 0, 3)
	reps, _, _ := runFaulted(t, mustPlan(t, "straggle@1:stage=map,factor=10,task=0"), fault.RetryPolicy{}, 0, 3)
	if reps[1].ProcessingTime <= clean[1].ProcessingTime {
		t.Errorf("straggled batch processing %v not above clean %v", reps[1].ProcessingTime, clean[1].ProcessingTime)
	}
	if reps[0].ProcessingTime != clean[0].ProcessingTime || reps[2].ProcessingTime != clean[2].ProcessingTime {
		t.Error("straggle leaked into unafflicted batches")
	}
	if reps[1].W <= clean[1].W {
		t.Error("straggle did not raise the stability ratio W")
	}
}

func TestSpeculativeExecutionCapsStragglers(t *testing.T) {
	freezeClock(t)
	plan := mustPlan(t, "straggle@1:stage=map,factor=100,task=0")
	slow, _, _ := runFaulted(t, plan, fault.RetryPolicy{}, 0, 2)
	// With a speculative threshold well under the straggled duration, the
	// backup copy wins and the batch finishes far earlier.
	capped, _, _ := runFaulted(t, plan, fault.RetryPolicy{SpeculativeAfter: tuple.Millisecond}, 0, 2)
	if capped[1].ProcessingTime >= slow[1].ProcessingTime {
		t.Errorf("speculation did not help: %v >= %v", capped[1].ProcessingTime, slow[1].ProcessingTime)
	}
	if capped[1].TaskRetries != 1 {
		t.Errorf("speculative run TaskRetries = %d, want 1", capped[1].TaskRetries)
	}
	if slow[1].TaskRetries != 0 {
		t.Errorf("non-speculative run TaskRetries = %d, want 0", slow[1].TaskRetries)
	}
}

func TestLoseBatchOutputRecovers(t *testing.T) {
	freezeClock(t)
	clean, cleanWin, _ := runFaulted(t, nil, fault.RetryPolicy{}, 0, 4)
	reps, win, _ := runFaulted(t, mustPlan(t, "lose@2:fails=1"), fault.RetryPolicy{}, 0, 4)

	if !reflect.DeepEqual(win, cleanWin) {
		t.Error("recovered window diverged from fault-free run")
	}
	if reps[2].RecoveryAttempts != 2 {
		t.Errorf("RecoveryAttempts = %d, want 2 (one scripted failure + success)", reps[2].RecoveryAttempts)
	}
	if reps[2].RecoveryTime <= 0 {
		t.Errorf("RecoveryTime = %v, want > 0", reps[2].RecoveryTime)
	}
	if got, want := reps[2].ProcessingTime, clean[2].ProcessingTime+reps[2].RecoveryTime; got != want {
		t.Errorf("ProcessingTime = %v, want clean %v + recovery %v", got, clean[2].ProcessingTime, reps[2].RecoveryTime)
	}
	for _, i := range []int{0, 1, 3} {
		if reps[i].RecoveryAttempts != 0 || reps[i].RecoveryTime != 0 {
			t.Errorf("batch %d has recovery fields set without a loss", i)
		}
	}
}

func TestLoseBeyondRetryBudgetFailsBatch(t *testing.T) {
	freezeClock(t)
	cfg := testConfig()
	cfg.Faults = mustPlan(t, "lose@1:fails=2")
	cfg.Retry = fault.RetryPolicy{MaxAttempts: 2}
	eng, err := New(cfg, WordCount(window.Spec{}))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(5000, 40, 3)
	if _, err := eng.RunBatches(src, 3); err == nil {
		t.Fatal("batch needing 3 attempts survived a 2-attempt budget")
	} else if !strings.Contains(err.Error(), "unrecoverable") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestFaultObserverEvents(t *testing.T) {
	freezeClock(t)
	rec := &recordingObserver{}
	cfg := testConfig()
	cfg.Faults = mustPlan(t, "kill@1:cores=2,after=1ms;lose@2:fails=1;straggle@3:factor=50,task=0")
	cfg.Retry = fault.RetryPolicy{SpeculativeAfter: tuple.Millisecond}
	cfg.Observer = rec
	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(8000, 80, 21)
	reports, err := eng.RunBatches(src, 4)
	if err != nil {
		t.Fatal(err)
	}

	var killRetries, specRetries int
	for _, r := range rec.retries {
		switch r.Reason {
		case "executor-lost":
			killRetries++
			if r.Batch != 1 || r.Stage != "map" || r.Attempt != 2 {
				t.Errorf("executor-lost retry misaddressed: %+v", r)
			}
		case "speculative":
			specRetries++
			if r.Batch != 3 {
				t.Errorf("speculative retry misaddressed: %+v", r)
			}
		default:
			t.Errorf("unknown retry reason %q", r.Reason)
		}
	}
	if killRetries == 0 || specRetries == 0 {
		t.Errorf("retry events: %d executor-lost, %d speculative; want both > 0", killRetries, specRetries)
	}
	if got := reports[1].TaskRetries; got != killRetries {
		t.Errorf("batch 1 TaskRetries = %d, observer saw %d", got, killRetries)
	}
	if len(rec.recoveries) != 1 {
		t.Fatalf("observer saw %d recoveries, want 1", len(rec.recoveries))
	}
	rcv := rec.recoveries[0]
	if rcv.Batch != 2 || rcv.Attempts != 2 || rcv.Simulated != reports[2].RecoveryTime {
		t.Errorf("recovery event %+v disagrees with report %+v", rcv, reports[2])
	}

	// The collector rolls the same events into its summary.
	col := metrics.NewCollector()
	cfg2 := cfg
	cfg2.Observer = col
	eng2, err := New(cfg2, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.RunBatches(testSource(8000, 80, 21), 4); err != nil {
		t.Fatal(err)
	}
	sum := col.Summary()
	if sum.TaskRetries != killRetries+specRetries || sum.Recoveries != 1 {
		t.Errorf("collector summary = %+v, want %d retries and 1 recovery", sum, killRetries+specRetries)
	}
}

// TestBatchStoreEvictsAtWindowExit pins the replica lifecycle: the store
// retains exactly the batches whose outputs can still be needed (the
// window length) and drops each replica as it exits.
func TestBatchStoreEvictsAtWindowExit(t *testing.T) {
	freezeClock(t)
	cfg := testConfig()
	cfg.Faults = mustPlan(t, "lose@1:fails=0")
	winLen := 3 * tuple.Second
	eng, err := New(cfg, WordCount(window.Sliding(winLen, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(5000, 40, 9)
	for i := 0; i < 8; i++ {
		if _, err := eng.RunBatches(src, 1); err != nil {
			t.Fatal(err)
		}
		maxHeld := int(winLen / cfg.BatchInterval)
		if got := eng.store.Len(); got > maxHeld {
			t.Fatalf("after batch %d the store holds %d replicas, want <= %d (window exit eviction)", i, got, maxHeld)
		}
	}
	// The oldest batches must be gone, the newest still present.
	if _, ok := eng.store.Get(0); ok {
		t.Error("batch 0 replica still held after its output exited the window")
	}
	if _, ok := eng.store.Get(7); !ok {
		t.Error("latest batch replica missing")
	}
}

// TestRecomputeAfterLossBitIdentical pins the §8 exactly-once core: the
// recomputed output of a lost batch equals the original output exactly.
func TestRecomputeAfterLossBitIdentical(t *testing.T) {
	freezeClock(t)
	cfg := testConfig()
	cfg.Faults = mustPlan(t, "lose@5:fails=0") // keep the store alive, lose nothing early
	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(8000, 80, 33)
	if _, err := eng.RunBatches(src, 3); err != nil {
		t.Fatal(err)
	}
	original := eng.LastResult() // batch 2's committed output
	recomputed, _, err := eng.store.Replay(2, eng.cfg, eng.queries)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recomputed[0].Map(eng.dict), original) {
		t.Error("recomputed batch output differs from the original")
	}
}

// TestConcurrentRecoveryRace exercises the BatchStore under the race
// detector: replays of old batches run while the driver keeps ingesting.
func TestConcurrentRecoveryRace(t *testing.T) {
	cfg := testConfig()
	cfg.Faults = mustPlan(t, "lose@100:fails=0") // enable the store, never fire
	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(4000, 40, 5)
	if _, err := eng.RunBatches(src, 2); err != nil {
		t.Fatal(err)
	}
	cfgCopy, queries := eng.cfg, eng.queries
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, _, err := eng.store.Replay(1, cfgCopy, queries); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	if _, err := eng.RunBatches(src, 4); err != nil {
		t.Error(err)
	}
	wg.Wait()
}

// TestCheckpointCarriesFaultState pins the checkpoint/fault interplay:
// restoring mid-run after an executor kill resumes with the cores still
// lost, and the resumed run matches an uninterrupted one bit-for-bit.
func TestCheckpointCarriesFaultState(t *testing.T) {
	freezeClock(t)
	plan := mustPlan(t, "kill@1:cores=2,after=1ms")
	q := WordCount(window.Sliding(10*tuple.Second, tuple.Second))

	cfg := testConfig()
	cfg.Faults = plan
	full, err := New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(8000, 80, 21)
	wantReps, err := full.RunBatches(src, 5)
	if err != nil {
		t.Fatal(err)
	}

	half, err := New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	src2 := testSource(8000, 80, 21)
	if _, err := half.RunBatches(src2, 3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := half.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(cfg, []Query{q}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.CoresLost() != 2 {
		t.Fatalf("restored CoresLost = %d, want 2", resumed.CoresLost())
	}
	// The restored engine's store is empty (replicas are not part of the
	// driver checkpoint) but refills as batches arrive; the remaining
	// batches have no scripted losses, so the runs must match exactly.
	tail, err := resumed.RunBatches(src2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tail, wantReps[3:]) {
		t.Errorf("resumed run diverged from uninterrupted run:\n got: %+v\nwant: %+v", tail, wantReps[3:])
	}
}

func TestStepContextCancellation(t *testing.T) {
	for _, workers := range []int{0, 4} {
		cfg := testConfig()
		cfg.Workers = workers
		eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
		if err != nil {
			t.Fatal(err)
		}
		src := testSource(5000, 40, 3)

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := eng.RunBatchesContext(ctx, src, 3); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: pre-cancelled run err = %v", workers, err)
		}
		if len(eng.Reports()) != 0 {
			t.Fatalf("workers=%d: cancelled run committed %d batches", workers, len(eng.Reports()))
		}
		// The engine stays usable with a live context.
		if _, err := eng.RunBatchesContext(context.Background(), src, 2); err != nil {
			t.Fatalf("workers=%d: run after cancellation: %v", workers, err)
		}
		if len(eng.Reports()) != 2 {
			t.Fatalf("workers=%d: %d reports, want 2", workers, len(eng.Reports()))
		}
	}
}

func TestStepConvertsTaskPanics(t *testing.T) {
	for _, workers := range []int{0, 4} {
		cfg := testConfig()
		cfg.Workers = workers
		boom := Query{
			Name: "boom",
			Map: func(tp tuple.Tuple) (float64, bool) {
				if tp.Key == "k3" {
					panic("map exploded")
				}
				return 1, true
			},
		}
		eng, err := New(cfg, boom)
		if err != nil {
			t.Fatal(err)
		}
		src := testSource(5000, 40, 3)
		_, rerr := eng.RunBatches(src, 1)
		if rerr == nil {
			t.Fatalf("workers=%d: panicking query succeeded", workers)
		}
		if !strings.Contains(rerr.Error(), "panicked") {
			t.Fatalf("workers=%d: error %q does not mention the panic", workers, rerr)
		}
	}
}
