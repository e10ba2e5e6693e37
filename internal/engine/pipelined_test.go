package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"prompt/internal/metrics"
	"prompt/internal/partition"
	"prompt/internal/reducer"
	"prompt/internal/tuple"
	"prompt/internal/window"
)

// pipeScenario is one scheme cell of the depth-equivalence matrix.
type pipeScenario struct {
	name   string
	faults string
	config func(Config) Config
}

func pipeScenarios() []pipeScenario {
	prompt := func(c Config) Config {
		c.Partitioner = partition.NewPrompt()
		c.Assigner = reducer.NewPrompt()
		c.Accum = FrequencyAware
		return c
	}
	return []pipeScenario{
		{name: "prompt-row", config: prompt},
		{name: "hash-postsort", config: func(c Config) Config {
			c.Partitioner = partition.NewHash()
			c.Assigner = reducer.NewHash()
			c.Accum = PostSortMode
			return c
		}},
		{name: "pk5-postsort", config: func(c Config) Config {
			c.Partitioner = partition.NewPKd(5)
			c.Assigner = reducer.NewHash()
			c.Accum = PostSortMode
			return c
		}},
		{name: "prompt-faults", faults: "kill@1:cores=2,after=2ms;lose@3:fails=1;straggle@2:stage=map,factor=6", config: prompt},
	}
}

// runState is everything a run leaves behind that depth must not change:
// the reports, the final window and last batch answers, the interned
// dictionary in ID order (window state and checkpoint slot images are
// keyed by ID; keys intern at the transpose, in arrival order, so the
// order is a function of the input) and the engine's committed position.
// The restored field holds the window after a checkpoint/restore round
// trip, proving pipelined runs checkpoint cleanly.
type runState struct {
	reports  []BatchReport
	win      map[string]float64
	last     map[string]float64
	dict     []string
	now      tuple.Time
	restored map[string]float64
}

// runAtDepth drives n word-count batches at the given pipeline depth.
func runAtDepth(t *testing.T, sc pipeScenario, depth, workers, n int) runState {
	t.Helper()
	cfg := sc.config(testConfig())
	cfg.Workers = workers
	cfg.PipelineDepth = depth
	if sc.faults != "" {
		cfg.Faults = mustPlan(t, sc.faults)
	}
	q := WordCount(window.Sliding(10*tuple.Second, tuple.Second))
	eng, err := New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunBatches(testSource(6000, 60, 17), n); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	rest, err := Restore(cfg, []Query{q}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever order this run interned in, a restore must reproduce it ID
	// for ID: the window's slot images name keys by ID and Restore verifies
	// them against the dictionary section.
	dict := eng.Dict().Snapshot()
	if got := rest.Dict().Snapshot(); !slices.Equal(got, dict) {
		t.Errorf("depth %d: restored dictionary differs from the checkpointed one (%d vs %d keys)", depth, len(got), len(dict))
	}
	win := eng.WindowSnapshot()
	restored := rest.WindowSnapshot()
	if !reflect.DeepEqual(restored, win) {
		t.Errorf("depth %d: restored window differs from the checkpointed one", depth)
	}
	return runState{
		reports:  eng.Reports(),
		win:      win,
		last:     eng.LastResult(),
		dict:     dict,
		now:      eng.Now(),
		restored: restored,
	}
}

// TestPipelinedDepthEquivalence is the engine-level golden invariant for
// inter-batch pipelining: at depths 2 and 3, every report, the final
// window, and the checkpoint image are bit-identical to the depth-1 run —
// across schemes, fault plans, and worker counts.
// Pipelining must change wall-clock time only.
func TestPipelinedDepthEquivalence(t *testing.T) {
	freezeClock(t)
	const n = 8
	for _, sc := range pipeScenarios() {
		for _, workers := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				ref := runAtDepth(t, sc, 1, workers, n)
				for _, depth := range []int{2, 3} {
					got := runAtDepth(t, sc, depth, workers, n)
					if !reflect.DeepEqual(got.reports, ref.reports) {
						t.Errorf("depth %d: reports diverge from depth 1", depth)
					}
					if !reflect.DeepEqual(got.win, ref.win) {
						t.Errorf("depth %d: window diverges from depth 1", depth)
					}
					if !reflect.DeepEqual(got.last, ref.last) {
						t.Errorf("depth %d: last batch result diverges from depth 1", depth)
					}
					if !reflect.DeepEqual(got.dict, ref.dict) {
						t.Errorf("depth %d: interned dictionary diverges from depth 1", depth)
					}
					if got.now != ref.now {
						t.Errorf("depth %d: committed position %v, want %v", depth, got.now, ref.now)
					}
					if !reflect.DeepEqual(got.restored, ref.restored) {
						t.Errorf("depth %d: checkpoint round trip diverges from depth 1", depth)
					}
				}
			})
		}
	}
}

// TestPipelinedResumesSequential verifies a pipelined run and sequential
// Steps compose: batches run pipelined, then stepped, then pipelined
// again, matching one long sequential run bit for bit (the estimate
// feedback and scratch state hand over cleanly in both directions).
func TestPipelinedResumesSequential(t *testing.T) {
	freezeClock(t)
	cfg := testConfig()
	cfg.Workers = 4
	mk := func(depth int) *Engine {
		c := cfg
		c.PipelineDepth = depth
		eng, err := New(c, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	ref := mk(1)
	if _, err := ref.RunBatches(testSource(6000, 60, 23), 9); err != nil {
		t.Fatal(err)
	}

	eng := mk(2)
	src := testSource(6000, 60, 23)
	if _, err := eng.RunBatches(src, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		start := eng.Now()
		end := start + cfg.BatchInterval
		tuples, err := src.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Step(tuples, start, end); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RunBatches(src, 3); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(eng.Reports(), ref.Reports()) {
		t.Error("mixed pipelined/sequential run diverges from sequential reports")
	}
	if !reflect.DeepEqual(eng.WindowSnapshot(), ref.WindowSnapshot()) {
		t.Error("mixed pipelined/sequential run diverges from sequential window")
	}
}

// TestPipelineDepthValidation covers the config and setter bounds.
func TestPipelineDepthValidation(t *testing.T) {
	bad := testConfig()
	bad.PipelineDepth = -1
	if _, err := New(bad, WordCount(window.Sliding(5*tuple.Second, tuple.Second))); err == nil {
		t.Error("accepted negative pipeline depth")
	}
	bad.PipelineDepth = MaxPipelineDepth + 1
	if _, err := New(bad, WordCount(window.Sliding(5*tuple.Second, tuple.Second))); err == nil {
		t.Errorf("accepted pipeline depth %d", MaxPipelineDepth+1)
	}
	eng, err := New(testConfig(), WordCount(window.Sliding(5*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if eng.PipelineDepth() != 1 {
		t.Errorf("default depth = %d, want 1", eng.PipelineDepth())
	}
	if err := eng.SetPipelineDepth(3); err != nil || eng.PipelineDepth() != 3 {
		t.Errorf("SetPipelineDepth(3) = %v, depth %d", err, eng.PipelineDepth())
	}
	if err := eng.SetPipelineDepth(-2); err == nil {
		t.Error("SetPipelineDepth accepted -2")
	}
	if err := eng.SetPipelineDepth(0); err != nil || eng.PipelineDepth() != 1 {
		t.Errorf("SetPipelineDepth(0) = %v, depth %d, want depth 1", err, eng.PipelineDepth())
	}
}

// TestPipelinedFaultEquivalence mirrors TestFaultsDoNotChangeResults at
// depth 2: fault plans change only timing fields, never answers, and the
// faulted pipelined run equals the faulted sequential run exactly.
func TestPipelinedFaultEquivalence(t *testing.T) {
	freezeClock(t)
	plans := []string{
		"kill@1:node=0,cores=2,after=2ms",
		"lose@2:fails=1;kill@4:cores=1,after=0s;straggle@1:factor=3",
	}
	for _, plan := range plans {
		sc := pipeScenario{
			name:   "faults",
			faults: plan,
			config: func(c Config) Config { return c },
		}
		ref := runAtDepth(t, sc, 1, 4, 6)
		got := runAtDepth(t, sc, 2, 4, 6)
		if !reflect.DeepEqual(got.reports, ref.reports) {
			t.Errorf("plan %q: depth-2 reports diverge", plan)
		}
		if !reflect.DeepEqual(got.win, ref.win) {
			t.Errorf("plan %q: depth-2 window diverges", plan)
		}
	}
}

// batchEvents is one batch's lifecycle events as an observer saw them.
type batchEvents struct {
	start  metrics.BatchStart
	stages []metrics.StageEnd
	end    metrics.BatchEnd
}

// perBatchObserver files lifecycle events by batch. The pipelined driver
// emits a batch's front events on the frontend lane and its back events
// on the calling goroutine, so events of different batches interleave;
// within one batch they stay ordered.
type perBatchObserver struct {
	metrics.NopObserver
	mu      sync.Mutex
	batches map[int]*batchEvents
}

func (o *perBatchObserver) batch(i int) *batchEvents {
	if o.batches == nil {
		o.batches = make(map[int]*batchEvents)
	}
	if o.batches[i] == nil {
		o.batches[i] = &batchEvents{}
	}
	return o.batches[i]
}

func (o *perBatchObserver) OnBatchStart(b metrics.BatchStart) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.batch(b.Batch).start = b
}

func (o *perBatchObserver) OnStageEnd(s metrics.StageEnd) {
	o.mu.Lock()
	defer o.mu.Unlock()
	ev := o.batch(s.Batch)
	ev.stages = append(ev.stages, s)
}

func (o *perBatchObserver) OnBatchEnd(b metrics.BatchEnd) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.batch(b.Batch).end = b
}

// TestPipelinedObserverEventsMatchDepthOne: at depths 2 and 3 every
// batch's stage events (names, order, simulated time) and its batch-start
// and batch-end payloads equal depth 1's, across schemes and fault plans.
// Only the interleaving across batches may differ. Traced runs read their
// per-stage spans from these events.
func TestPipelinedObserverEventsMatchDepthOne(t *testing.T) {
	freezeClock(t)
	const n = 6
	run := func(sc pipeScenario, depth int) map[int]*batchEvents {
		cfg := sc.config(testConfig())
		cfg.PipelineDepth = depth
		if sc.faults != "" {
			cfg.Faults = mustPlan(t, sc.faults)
		}
		obs := &perBatchObserver{}
		cfg.Observer = obs
		eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunBatches(testSource(6000, 60, 17), n); err != nil {
			t.Fatal(err)
		}
		return obs.batches
	}
	for _, sc := range pipeScenarios() {
		ref := run(sc, 1)
		if len(ref) != n {
			t.Fatalf("%s: depth 1 observed %d batches, want %d", sc.name, len(ref), n)
		}
		for _, depth := range []int{2, 3} {
			got := run(sc, depth)
			for i := 0; i < n; i++ {
				if !reflect.DeepEqual(got[i], ref[i]) {
					t.Errorf("%s depth %d batch %d: events %+v, want %+v", sc.name, depth, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestPipelinedConvertsTaskPanics mirrors TestStepConvertsTaskPanics on the
// pipelined driver: a Map panic in batch 2 fails the run with an error
// naming the panic, returns the reports of the batches committed before
// it, and leaves no goroutine of either lane behind.
func TestPipelinedConvertsTaskPanics(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, depth := range []int{2, 3} {
		for _, workers := range []int{0, 4} {
			cfg := testConfig()
			cfg.Workers = workers
			cfg.PipelineDepth = depth
			boom := Query{
				Name: "boom",
				Map: func(tp tuple.Tuple) (float64, bool) {
					if tp.TS >= 2*tuple.Second && tp.TS < 3*tuple.Second {
						panic("map exploded")
					}
					return 1, true
				},
			}
			eng, err := New(cfg, boom)
			if err != nil {
				t.Fatal(err)
			}
			reps, rerr := eng.RunBatches(testSource(5000, 40, 3), 5)
			if rerr == nil || !strings.Contains(rerr.Error(), "panicked") {
				t.Fatalf("depth=%d workers=%d: error %v does not report the panic", depth, workers, rerr)
			}
			if len(reps) != 2 || reps[0].Index != 0 || reps[1].Index != 1 {
				t.Fatalf("depth=%d workers=%d: got %d reports, want batches 0-1", depth, workers, len(reps))
			}
			if eng.Now() != 2*tuple.Second {
				t.Errorf("depth=%d workers=%d: committed position %v, want 2s", depth, workers, eng.Now())
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after panicking runs", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
