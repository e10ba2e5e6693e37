package prompt_test

// Full-stack integration tests: scenarios that exercise several subsystems
// together — the engine under the elastic controller with a recovering
// batch store, back-pressure closing the loop on an overloaded stream,
// adaptive batch sizing on the public API's engine, and trace-file
// round-trips driving a complete query.

import (
	"bytes"
	"math"
	"slices"
	"testing"
	"time"

	"prompt"

	"prompt/internal/backpressure"
	"prompt/internal/cluster"
	"prompt/internal/core"
	"prompt/internal/elastic"
	"prompt/internal/engine"
	"prompt/internal/experiment"
	"prompt/internal/fault"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// heavyCost is a cost model under which laptop-scale rates saturate a few
// cores, so stability dynamics are visible in fast tests.
func heavyCost() experiment.Params { return experiment.Quick() }

func TestIntegrationElasticWithRecovery(t *testing.T) {
	// Engine + Algorithm 4 + executor pool + batch replication, against a
	// rising workload; mid-run, recover an old batch and verify the run
	// is undisturbed and the recovered output matches.
	params := heavyCost()
	cfg := params.Cost
	ecfg := engine.Config{
		BatchInterval: tuple.Second,
		MapTasks:      2,
		ReduceTasks:   2,
		Cores:         2,
		Cost:          cfg,
	}
	ecfg = core.PromptScheme().Apply(ecfg)
	q := engine.WordCount(window.Sliding(5*tuple.Second, tuple.Second))
	re, err := engine.NewRecoverable(ecfg, q)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := elastic.NewController(elastic.Config{D: 2}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cluster.NewExecutorPool(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	driver, err := core.NewElasticDriver(re.Engine, ctrl, pool)
	if err != nil {
		t.Fatal(err)
	}

	keys, err := workload.NewUniformSampler("k", 3_000)
	if err != nil {
		t.Fatal(err)
	}
	src := &workload.Source{
		Name: "rising",
		Rate: workload.RampRate{From: 20_000, To: 150_000, Start: 0, End: 16 * tuple.Second},
		Keys: keys,
		Seed: 77,
	}

	outputs := map[int]map[string]float64{}
	for i := 0; i < 16; i++ {
		start := re.Now()
		end := start + tuple.Second
		ts, err := src.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		// Replicate, process, let the driver apply the controller's
		// decision (parallelism, ownership, cores).
		rep, err := re.Step(ts, start, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := driver.Observe(rep); err != nil {
			t.Fatal(err)
		}
		cp := map[string]float64{}
		for k, v := range re.LastResult() {
			cp[k] = v
		}
		outputs[i] = cp

		// Mid-run recovery of a recent batch.
		if i == 10 {
			recovered, err := re.Recover(8)
			if err != nil {
				t.Fatalf("recovery at batch %d: %v", i, err)
			}
			if len(recovered) != len(outputs[8]) {
				t.Fatalf("recovered %d keys, want %d", len(recovered), len(outputs[8]))
			}
			for k, v := range outputs[8] {
				if recovered[k] != v {
					t.Fatalf("recovered key %s = %v, want %v", k, recovered[k], v)
				}
			}
		}
	}
	// Scale-out happened under the 7.5x ramp.
	last := re.Reports()[len(re.Reports())-1]
	if last.MapTasks <= 2 && last.ReduceTasks <= 2 {
		t.Errorf("controller never scaled out: %+v", last)
	}
	// The pool's cores cover the widest stage of the next batch, and the
	// engine runs on them; key-range ownership follows the Map task count.
	if next := re.Config(); pool.Cores() < max(next.MapTasks, next.ReduceTasks) || next.Cores != pool.Cores() {
		t.Errorf("engine cores %d, pool cores %d, next batch p=%d r=%d",
			next.Cores, pool.Cores(), next.MapTasks, next.ReduceTasks)
	}
	if re.Owners() != last.MapTasks || re.Migrations() == 0 {
		t.Errorf("owners %d after %d migrations, want the Map task count %d",
			re.Owners(), re.Migrations(), last.MapTasks)
	}
}

func TestIntegrationBackpressureStabilizes(t *testing.T) {
	// An offered rate far above capacity; the AIMD throttle must find a
	// factor at which the system stops queueing.
	params := heavyCost()
	cfg := core.PromptScheme().Apply(engine.Config{
		BatchInterval: tuple.Second,
		MapTasks:      4,
		ReduceTasks:   4,
		Cores:         4,
		Cost:          params.Cost,
	})
	eng, err := engine.New(cfg, engine.Query{Name: "wc", Map: engine.CountMap, Reduce: window.Sum})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := workload.NewUniformSampler("k", 2_000)
	if err != nil {
		t.Fatal(err)
	}
	const offered = 600_000 // well above the ~4-core capacity
	throttle := backpressure.NewAIMD()
	// One continuous source whose rate follows the live throttle factor,
	// exactly how Spark's receiver-side back-pressure acts on ingestion.
	src := &workload.Source{
		Name: "burst",
		Rate: throttledRate{base: offered, factor: &throttle.Factor},
		Keys: keys,
		Seed: 3,
	}
	triggered := false
	var reports []engine.BatchReport
	for i := 0; i < 40; i++ {
		start := eng.Now()
		end := start + tuple.Second
		ts, err := src.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Step(ts, start, end)
		if err != nil {
			t.Fatal(err)
		}
		throttle.Observe(rep.Stable && rep.QueueWait == 0)
		if throttle.Triggered() {
			triggered = true
		}
		reports = append(reports, rep)
	}
	if !triggered {
		t.Fatal("back-pressure never engaged despite 600k/s offered on 4 cores")
	}
	// AIMD oscillates around the capacity by design; the guarantees are
	// that the backlog stays bounded (no runaway queueing) and that the
	// second half of the run is mostly stable.
	stable := 0
	var maxWait tuple.Time
	for _, rep := range reports[20:] {
		if rep.Stable {
			stable++
		}
		if rep.QueueWait > maxWait {
			maxWait = rep.QueueWait
		}
	}
	if stable < 10 {
		t.Errorf("only %d/20 stable batches in the throttled steady state", stable)
	}
	if maxWait > 3*tuple.Second {
		t.Errorf("queue wait grew to %v despite back-pressure", maxWait)
	}
}

func TestIntegrationTraceDrivesPublicAPI(t *testing.T) {
	// streamgen-format trace -> Trace -> public API stream -> windowed
	// answer identical to generating directly.
	gen, err := workload.Tweets(workload.ConstantRate(8_000),
		workload.DatasetDefaults{Cardinality: 1_000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var all []tuple.Tuple
	for i := 0; i < 3; i++ {
		ts, err := gen.Slice(tuple.Time(i)*tuple.Second, tuple.Time(i+1)*tuple.Second)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ts...)
	}
	var csv bytes.Buffer
	if err := workload.NewTrace("t", all).WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	trace, err := workload.ReadTrace("t", &csv)
	if err != nil {
		t.Fatal(err)
	}

	st, err := prompt.New(prompt.Config{Validate: true}, prompt.WordCount(10*time.Second, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ts, err := trace.Slice(st.Now(), st.Now()+tuple.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.ProcessBatch(ts); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]float64{}
	for i := range all {
		want[all[i].Key]++
	}
	got := st.Window()
	if len(got) != len(want) {
		t.Fatalf("window keys %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("key %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestIntegrationLiveMatchesSimulatedOrdering(t *testing.T) {
	// The cost-model simulation claims balanced blocks beat skewed ones;
	// verify the engine's executor, running Map and Reduce on a pool of
	// real goroutines, agrees at least on results, and that prompt's
	// bucket sizes are flatter than hash's.
	params := heavyCost()
	src, err := workload.SynD(workload.ConstantRate(80_000), 1.4,
		workload.DatasetDefaults{Cardinality: 5_000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := src.Slice(0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for i := range ts {
		want[ts[i].Key]++
	}
	q := engine.Query{Name: "wc", Map: engine.CountMap, Reduce: window.Sum}

	spreads := map[string]int{}
	for _, scheme := range []core.Scheme{mustBaseline(t, "hash"), core.PromptScheme()} {
		eng, err := engine.New(scheme.Apply(engine.Config{
			BatchInterval:   tuple.Second,
			MapTasks:        params.Blocks,
			ReduceTasks:     params.Reducers,
			Cost:            params.Cost,
			Workers:         4,
			ValidateBatches: true,
		}), q)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.Step(ts, 0, tuple.Second)
		if err != nil {
			t.Fatal(err)
		}
		got := eng.LastResult()
		if len(got) != len(want) {
			t.Fatalf("%s: result has %d keys, want %d", scheme.Name, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: key %s = %v, want %v", scheme.Name, k, got[k], v)
			}
		}
		total := 0
		for _, s := range rep.BucketSizes {
			total += s
		}
		if len(rep.BucketSizes) != params.Reducers || total != len(ts) {
			t.Fatalf("%s: %d buckets holding %d tuples, want %d holding %d",
				scheme.Name, len(rep.BucketSizes), total, params.Reducers, len(ts))
		}
		spreads[scheme.Name] = slices.Max(rep.BucketSizes) - slices.Min(rep.BucketSizes)
	}
	t.Logf("bucket spread: hash %d, prompt %d", spreads["hash"], spreads["prompt"])
	if spreads["prompt"] >= spreads["hash"] {
		t.Errorf("bucket spread: prompt %d not below hash %d",
			spreads["prompt"], spreads["hash"])
	}
}

// throttledRate offers base tuples/second scaled by a live throttle
// factor, read at generation time.
type throttledRate struct {
	base   float64
	factor *float64
}

// RateAt implements workload.RateShape.
func (r throttledRate) RateAt(tuple.Time) float64 { return r.base * *r.factor }

func mustBaseline(t *testing.T, name string) core.Scheme {
	t.Helper()
	s, err := core.Baseline(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestIntegrationBackpressureRecoveryAware closes the loop between fault
// recovery and the AIMD throttle: a batch that overshoots its interval
// only because it recomputed a lost output takes the gentle RecoveryCut,
// while a naive stability-only controller over-throttles on the same
// run. The rate is chosen so processing fits the interval comfortably
// and only the recovery surcharge pushes the faulted batch over.
func TestIntegrationBackpressureRecoveryAware(t *testing.T) {
	plan, err := fault.ParsePlan("lose@2:fails=1")
	if err != nil {
		t.Fatal(err)
	}
	params := experiment.Default()
	cfg := engine.Config{
		BatchInterval: tuple.Second,
		MapTasks:      8,
		ReduceTasks:   8,
		Cores:         8,
		Cost:          params.Cost,
		Faults:        plan,
	}
	eng, err := engine.New(cfg, engine.Query{Name: "wc", Map: engine.CountMap, Reduce: window.Sum})
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.Tweets(workload.ConstantRate(120_000),
		workload.DatasetDefaults{Cardinality: 50_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := eng.RunBatches(src, 4)
	if err != nil {
		t.Fatal(err)
	}
	faulted := reports[2]
	if faulted.RecoveryTime <= 0 || faulted.Stable {
		t.Fatalf("batch 2 not recovery-destabilized as intended: %+v", faulted)
	}
	if faulted.ProcessingTime-faulted.RecoveryTime > cfg.BatchInterval {
		t.Fatalf("batch 2 would be late even without recovery (proc %v, recovery %v); lower the rate",
			faulted.ProcessingTime, faulted.RecoveryTime)
	}

	aware := backpressure.NewAIMD()
	naive := backpressure.NewAIMD()
	for _, r := range reports {
		stable := r.Stable && r.QueueWait == 0
		aware.ObserveBatch(stable, int64(r.ProcessingTime), int64(r.RecoveryTime), int64(cfg.BatchInterval))
		naive.Observe(stable)
	}
	if aware.Factor <= naive.Factor {
		t.Errorf("recovery-aware throttle (%.3f) should hold more rate than the naive one (%.3f)",
			aware.Factor, naive.Factor)
	}
}
