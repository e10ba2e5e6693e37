package core

import (
	"strings"
	"testing"

	"prompt/internal/cluster"
	"prompt/internal/elastic"
	"prompt/internal/engine"
	"prompt/internal/metrics"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

func TestPromptScheme(t *testing.T) {
	s := PromptScheme()
	if s.Name != "prompt" || s.Partitioner.Name() != "prompt" || s.Assigner.Name() != "prompt" {
		t.Errorf("PromptScheme = %+v", s)
	}
	if s.Accum != engine.FrequencyAware {
		t.Error("Prompt scheme should use frequency-aware buffering")
	}
	ps := PromptPostSort()
	if ps.Accum != engine.PostSortMode || ps.Partitioner.Name() != "prompt" {
		t.Errorf("PromptPostSort = %+v", ps)
	}
}

func TestBaselines(t *testing.T) {
	for _, name := range []string{"time", "shuffle", "hash", "pk2", "pk5", "cam", "ffd", "fragmin"} {
		s, err := Baseline(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if s.Partitioner.Name() != name {
			t.Errorf("%s resolved to partitioner %s", name, s.Partitioner.Name())
		}
		if s.Assigner.Name() != "hash" {
			t.Errorf("%s should use the hash assigner, got %s", name, s.Assigner.Name())
		}
	}
	if s, err := Baseline("prompt"); err != nil || s.Assigner.Name() != "prompt" {
		t.Errorf("Baseline(prompt) = %+v, %v", s, err)
	}
	if _, err := Baseline("nosuch"); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestSchemesOrder(t *testing.T) {
	ss := Schemes()
	if len(ss) != 10 {
		t.Fatalf("Schemes returned %d entries", len(ss))
	}
	if ss[0].Name != "time" || ss[len(ss)-1].Name != "prompt" {
		t.Errorf("scheme order: first=%s last=%s", ss[0].Name, ss[len(ss)-1].Name)
	}
	if len(ss) != len(Names()) {
		t.Errorf("Schemes (%d) and Names (%d) disagree on registry size", len(ss), len(Names()))
	}
}

func TestRegistryResolvesEveryName(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if s.Name != name {
			t.Errorf("ByName(%q) resolved to %q", name, s.Name)
		}
		if s.Partitioner == nil || s.Assigner == nil {
			t.Errorf("ByName(%q) returned nil components", name)
		}
	}
	if s, err := ByName(""); err != nil || s.Name != "prompt" {
		t.Errorf("ByName(\"\") = %+v, %v; want prompt", s, err)
	}
}

func TestRegistryHandsOutFreshInstances(t *testing.T) {
	a, err := ByName("prompt")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("prompt")
	if err != nil {
		t.Fatal(err)
	}
	if a.Partitioner == b.Partitioner {
		t.Error("ByName returned a shared partitioner instance")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(PromptScheme)
}

func TestByNameUnknownListsAllNames(t *testing.T) {
	_, err := ByName("nosuch")
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-scheme error omits registered name %q: %v", name, err)
		}
	}
}

func TestApply(t *testing.T) {
	cfg := Scheme.Apply(PromptScheme(), engine.Config{BatchInterval: tuple.Second})
	if cfg.Partitioner == nil || cfg.Assigner == nil {
		t.Error("Apply left nils")
	}
	if cfg.Accum != engine.FrequencyAware {
		t.Error("Apply did not copy accumulation mode")
	}
}

func newTestDriver(t *testing.T, initialTasks int, poolCap int) (*ElasticDriver, *cluster.ExecutorPool) {
	t.Helper()
	cfg := engine.Config{
		BatchInterval: tuple.Second,
		MapTasks:      initialTasks,
		ReduceTasks:   initialTasks,
		Cores:         initialTasks,
		// A heavier-than-default cost model so the ramp workloads below
		// cross the stability threshold at laptop-scale rates.
		Cost: metrics.CostModel{
			MapFixed: tuple.Millisecond, MapPerTuple: 10 * tuple.Microsecond,
			MapPerKey:   tuple.Microsecond,
			ReduceFixed: tuple.Millisecond, ReducePerTuple: 5 * tuple.Microsecond,
			ReducePerFragment: 100 * tuple.Microsecond,
		},
	}
	cfg = PromptScheme().Apply(cfg)
	eng, err := engine.New(cfg, engine.WordCount(window.Sliding(30*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	ecfg := elastic.DefaultConfig()
	ecfg.D = 2
	ecfg.MaxMapTasks = poolCap * 2
	ecfg.MaxReduceTasks = poolCap * 2
	ctrl, err := elastic.NewController(ecfg, initialTasks, initialTasks)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cluster.NewExecutorPool(poolCap, 2, (initialTasks+1)/2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewElasticDriver(eng, ctrl, pool)
	if err != nil {
		t.Fatal(err)
	}
	return d, pool
}

func TestElasticDriverValidation(t *testing.T) {
	if _, err := NewElasticDriver(nil, nil, nil); err == nil {
		t.Error("accepted nils")
	}
	cfg := PromptScheme().Apply(engine.Config{BatchInterval: tuple.Second, MapTasks: 4, ReduceTasks: 4, Cores: 4})
	eng, err := engine.New(cfg, engine.WordCount(window.Sliding(30*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := elastic.NewController(elastic.DefaultConfig(), 2, 2) // mismatch
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cluster.NewExecutorPool(8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewElasticDriver(eng, ctrl, pool); err == nil {
		t.Error("accepted mismatched parallelism")
	}
}

func TestElasticDriverScalesOutUnderRisingLoad(t *testing.T) {
	d, pool := newTestDriver(t, 2, 32)
	keys, err := workload.NewGrowingSampler("k", 100, 2000, 0, 20*tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	src := &workload.Source{
		Name: "rising",
		Rate: workload.RampRate{From: 20000, To: 200000, Start: 0, End: 20 * tuple.Second},
		Keys: keys,
		Seed: 5,
	}
	reports, err := d.RunBatches(src, 20)
	if err != nil {
		t.Fatal(err)
	}
	last := reports[len(reports)-1]
	if last.MapTasks <= 2 && last.ReduceTasks <= 2 {
		t.Errorf("no scale-out under 20x load growth: %+v", last)
	}
	// Cores must cover the widest stage.
	wide := last.MapTasks
	if last.ReduceTasks > wide {
		wide = last.ReduceTasks
	}
	if pool.Cores() < wide {
		t.Errorf("pool cores %d below widest stage %d", pool.Cores(), wide)
	}
	// Every decision reached the engine: policy and engine agree on the
	// parallelism the next batch would run at.
	pm, pr := d.Policy.Parallelism()
	if cfg := d.Engine.Config(); cfg.MapTasks != pm || cfg.ReduceTasks != pr {
		t.Errorf("engine at p=%d r=%d, policy at p=%d r=%d", cfg.MapTasks, cfg.ReduceTasks, pm, pr)
	}
	// Key-range ownership follows the Map task count: the owners a
	// decision requests take over at the end of the batch it first runs.
	if got := d.Engine.Owners(); got != last.MapTasks {
		t.Errorf("owners %d, want the last batch's Map task count %d", got, last.MapTasks)
	}
}

func TestElasticDriverScalesInUnderFallingLoad(t *testing.T) {
	d, pool := newTestDriver(t, 12, 32)
	keys, err := workload.NewUniformSampler("k", 500)
	if err != nil {
		t.Fatal(err)
	}
	src := &workload.Source{
		Name: "falling",
		Rate: workload.RampRate{From: 100000, To: 2000, Start: 0, End: 10 * tuple.Second},
		Keys: keys,
		Seed: 6,
	}
	held0 := pool.Held()
	reports, err := d.RunBatches(src, 20)
	if err != nil {
		t.Fatal(err)
	}
	last := reports[len(reports)-1]
	if last.MapTasks >= 12 && last.ReduceTasks >= 12 {
		t.Errorf("no scale-in after load collapse: %+v", last)
	}
	if pool.Held() >= held0 {
		t.Errorf("executors not released: %d -> %d", held0, pool.Held())
	}
}

// scripted is a Policy that replays fixed actions, then holds.
type scripted struct {
	m, r int
	acts []elastic.Action
}

func (s *scripted) Parallelism() (int, int) { return s.m, s.r }

func (s *scripted) Observe(elastic.Observation) elastic.Action {
	if len(s.acts) == 0 {
		return elastic.Action{MapTasks: s.m, ReduceTasks: s.r, Reason: "hold"}
	}
	act := s.acts[0]
	s.acts = s.acts[1:]
	s.m, s.r = act.MapTasks, act.ReduceTasks
	return act
}

// TestElasticDriverObserveAppliesAction: Observe is the one place an
// Action becomes engine state. A decision sets the parallelism, fits the
// pool's cores to the widest stage, and moves key-range ownership to the
// Map task count even where that differs from the core count; a hold
// changes nothing, and a nil pool leaves the cores alone.
func TestElasticDriverObserveAppliesAction(t *testing.T) {
	keys, err := workload.NewUniformSampler("k", 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, withPool := range []bool{true, false} {
		cfg := PromptScheme().Apply(engine.Config{BatchInterval: tuple.Second, MapTasks: 2, ReduceTasks: 2, Cores: 2})
		eng, err := engine.New(cfg, engine.WordCount(window.Sliding(5*tuple.Second, tuple.Second)))
		if err != nil {
			t.Fatal(err)
		}
		var pool *cluster.ExecutorPool
		if withPool {
			if pool, err = cluster.NewExecutorPool(8, 2, 1); err != nil {
				t.Fatal(err)
			}
		}
		policy := &scripted{m: 2, r: 2, acts: []elastic.Action{
			{MapTasks: 3, ReduceTasks: 5, Direction: +1},
			{MapTasks: 4, ReduceTasks: 7, Direction: +1},
		}}
		d, err := NewElasticDriver(eng, policy, pool)
		if err != nil {
			t.Fatal(err)
		}
		src := &workload.Source{Name: "flat", Rate: workload.ConstantRate(2000), Keys: keys, Seed: 9}
		reports, err := d.RunBatches(src, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Two-core executors: three cover five Reduce tasks, four cover
		// seven.
		six, eight := 6, 8
		if !withPool {
			six, eight = 2, 2
		}
		for i, want := range [][3]int{{2, 2, 2}, {3, 5, six}, {4, 7, eight}, {4, 7, eight}} {
			if got := [3]int{reports[i].MapTasks, reports[i].ReduceTasks, reports[i].Cores}; got != want {
				t.Errorf("pool %v, batch %d ran at p, r, cores = %v, want %v", withPool, i, got, want)
			}
		}
		if eng.Owners() != 4 {
			t.Errorf("pool %v: %d owners, want the Map task count 4", withPool, eng.Owners())
		}
	}
}
