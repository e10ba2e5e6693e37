package elastic

import (
	"reflect"
	"strings"
	"testing"

	"prompt/internal/metrics"
	"prompt/internal/tuple"
)

// TestNewSelectsByName: New resolves every policy name the public API
// and promptsim accept, and rejects the rest naming what remains.
func TestNewSelectsByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Policy
	}{
		{"threshold", (*Controller)(nil)},
		{"", (*Controller)(nil)},
		{"cost", (*CostAware)(nil)},
	} {
		p, err := New(tc.name, DefaultConfig(), metrics.CostModel{}, tuple.Second, 2, 3)
		if err != nil {
			t.Fatalf("New(%q): %v", tc.name, err)
		}
		if reflect.TypeOf(p) != reflect.TypeOf(tc.want) {
			t.Errorf("New(%q) = %T, want %T", tc.name, p, tc.want)
		}
		if m, r := p.Parallelism(); m != 2 || r != 3 {
			t.Errorf("New(%q) starts at p=%d r=%d, want 2/3", tc.name, m, r)
		}
	}
	p, err := New("predictive", DefaultConfig(), metrics.CostModel{}, tuple.Second, 2, 3)
	if err == nil || p != nil {
		t.Fatalf("New(\"predictive\") = %v, %v; want an error", p, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "threshold") || !strings.Contains(msg, "cost") {
		t.Errorf("unknown-policy error %q does not list the remaining names", msg)
	}
	if p, err := New("threshold", DefaultConfig(), metrics.CostModel{}, tuple.Second, 0, 3); err == nil || p != nil {
		t.Errorf("New with parallelism below minimum = %v, %v; want nil and an error", p, err)
	}
}

// TestCostAwareConverges: under a constant load the cost-aware policy
// settles on one configuration and holds it (no flapping), and that
// configuration's predicted W sits inside the stability band.
func TestCostAwareConverges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMapTasks, cfg.MaxReduceTasks = 16, 16
	p, err := NewCostAware(cfg, metrics.CostModel{}, tuple.Second, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	obs := Observation{W: 1.4, Tuples: 200000, Keys: 5000}
	changes := 0
	for i := 0; i < 30; i++ {
		m, r := p.Parallelism()
		act := p.Observe(obs)
		if act.MapTasks != m || act.ReduceTasks != r {
			changes++
		}
		// The observed W tracks the acted-on configuration: work shared
		// evenly across tasks, scaled so an integer task sum (7) lands
		// inside the stability band (0.8, 0.9] and convergence is
		// possible at all.
		obs.W = 6.0 / float64(act.MapTasks+act.ReduceTasks)
	}
	if changes == 0 {
		t.Fatal("cost-aware policy never acted on an overloaded system")
	}
	if changes > 6 {
		t.Fatalf("cost-aware policy flapped: %d configuration changes in 30 batches", changes)
	}
	m, r := p.Parallelism()
	if m < 2 || r < 2 {
		t.Fatalf("overload released tasks: p=%d r=%d", m, r)
	}
}

// TestCostAwareScalesIn: when load collapses, the policy releases tasks
// in one decision instead of one-at-a-time.
func TestCostAwareScalesIn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMapTasks, cfg.MaxReduceTasks = 32, 32
	p, err := NewCostAware(cfg, metrics.CostModel{}, tuple.Second, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	var act Action
	for i := 0; i < 10; i++ {
		act = p.Observe(Observation{W: 0.05, Tuples: 1000, Keys: 50})
		if act.Direction < 0 {
			break
		}
	}
	if act.Direction >= 0 {
		t.Fatalf("idle system never scaled in: %+v", act)
	}
	if act.MapTasks >= 16 && act.ReduceTasks >= 16 {
		t.Fatalf("scale-in released nothing: %+v", act)
	}
}

// TestCostAwareValidation: bad construction parameters are rejected.
func TestCostAwareValidation(t *testing.T) {
	if _, err := NewCostAware(DefaultConfig(), metrics.CostModel{}, 0, 2, 2); err == nil {
		t.Fatal("accepted zero interval")
	}
	if _, err := NewCostAware(DefaultConfig(), metrics.CostModel{}, tuple.Second, 0, 2); err == nil {
		t.Fatal("accepted parallelism below minimum")
	}
	bad := metrics.DefaultCostModel()
	bad.MapPerTuple = -1
	if _, err := NewCostAware(DefaultConfig(), bad, tuple.Second, 2, 2); err == nil {
		t.Fatal("accepted invalid cost model")
	}
}

// TestPoliciesShareTheInterface: both policies drive through the same
// Policy interface the public API's WithElasticity accepts.
func TestPoliciesShareTheInterface(t *testing.T) {
	thr, _ := NewController(DefaultConfig(), 2, 2)
	cost, _ := NewCostAware(DefaultConfig(), metrics.CostModel{}, tuple.Second, 2, 2)
	for _, p := range []Policy{thr, cost} {
		m, r := p.Parallelism()
		if m != 2 || r != 2 {
			t.Fatalf("%T starts at p=%d r=%d, want 2/2", p, m, r)
		}
		act := p.Observe(Observation{W: 0.85, Tuples: 100, Keys: 10})
		if act.MapTasks < 1 || act.ReduceTasks < 1 {
			t.Fatalf("%T returned degenerate action %+v", p, act)
		}
	}
}
