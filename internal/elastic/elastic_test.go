package elastic

import (
	"strings"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Step = 0.95
	if err := bad.Validate(); err == nil {
		t.Error("accepted step >= threshold")
	}
	bad = DefaultConfig()
	bad.Threshold = -1
	if err := bad.Validate(); err == nil {
		t.Error("accepted negative threshold")
	}
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(DefaultConfig(), 0, 4); err == nil {
		t.Error("accepted parallelism below minimum")
	}
}

func TestZones(t *testing.T) {
	c, err := NewController(DefaultConfig(), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold 0.9, step 0.1: Zone1 <= 0.8, Zone2 (0.8, 0.9], Zone3 > 0.9.
	cases := []struct {
		w    float64
		zone Zone
	}{{0.5, Zone1}, {0.8, Zone1}, {0.85, Zone2}, {0.9, Zone2}, {0.91, Zone3}, {1.5, Zone3}}
	for _, tc := range cases {
		if got := c.ZoneOf(tc.w); got != tc.zone {
			t.Errorf("ZoneOf(%v) = %v, want %v", tc.w, got, tc.zone)
		}
	}
}

func TestScaleOutAfterDConsecutiveOverloads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.D = 3
	c, err := NewController(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Rising rate, rising keys: both task kinds should grow.
	obs := []Observation{
		{W: 1.2, Tuples: 1000, Keys: 100},
		{W: 1.3, Tuples: 1200, Keys: 120},
	}
	for _, o := range obs {
		act := c.Observe(o)
		if act.Direction != 0 {
			t.Fatalf("scaled before d consecutive batches: %+v", act)
		}
	}
	act := c.Observe(Observation{W: 1.4, Tuples: 1400, Keys: 140})
	if act.Direction != 1 {
		t.Fatalf("no scale-out after %d overloads: %+v", cfg.D, act)
	}
	// Proportional growth: 4 * (1.4/0.9 - 1) ~= 2.2 extra tasks each.
	if act.MapTasks != 6 || act.ReduceTasks != 6 {
		t.Errorf("scale-out to p=%d r=%d, want 6/6", act.MapTasks, act.ReduceTasks)
	}
}

func TestScaleOutProportionalToOverload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.D = 1
	mk := func() *Controller {
		c, err := NewController(cfg, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		// Establish a rising trend so both task kinds adjust.
		c.Observe(Observation{W: 0.85, Tuples: 1000, Keys: 100})
		return c
	}
	mild := mk().Observe(Observation{W: 0.95, Tuples: 2000, Keys: 200})
	severe := mk().Observe(Observation{W: 2.0, Tuples: 2000, Keys: 200})
	if mild.MapTasks != 9 {
		t.Errorf("mild overload added %d tasks, want 1", mild.MapTasks-8)
	}
	if severe.MapTasks <= mild.MapTasks {
		t.Errorf("severe overload (p=%d) did not outgrow mild (p=%d)",
			severe.MapTasks, mild.MapTasks)
	}
}

func TestScaleOutAttributesRateToMappers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.D = 2
	c, err := NewController(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Rate doubles, keys shrink: only Map tasks grow.
	c.Observe(Observation{W: 1.1, Tuples: 1000, Keys: 200})
	act := c.Observe(Observation{W: 1.1, Tuples: 2000, Keys: 100})
	if act.Direction != 1 {
		t.Fatalf("no scale-out: %+v", act)
	}
	if act.MapTasks != 5 || act.ReduceTasks != 4 {
		t.Errorf("got p=%d r=%d, want 5/4 (rate-driven)", act.MapTasks, act.ReduceTasks)
	}
}

func TestScaleOutAttributesKeysToReducers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.D = 2
	c, err := NewController(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(Observation{W: 1.1, Tuples: 2000, Keys: 100})
	act := c.Observe(Observation{W: 1.1, Tuples: 1000, Keys: 200})
	if act.Direction != 1 {
		t.Fatalf("no scale-out: %+v", act)
	}
	if act.MapTasks != 4 || act.ReduceTasks != 5 {
		t.Errorf("got p=%d r=%d, want 4/5 (distribution-driven)", act.MapTasks, act.ReduceTasks)
	}
}

func TestScaleInWhenUnderUtilized(t *testing.T) {
	cfg := DefaultConfig()
	cfg.D = 2
	c, err := NewController(cfg, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Falling rate, falling keys, idle system.
	c.Observe(Observation{W: 0.3, Tuples: 2000, Keys: 200})
	act := c.Observe(Observation{W: 0.3, Tuples: 1000, Keys: 100})
	if act.Direction != -1 {
		t.Fatalf("no scale-in: %+v", act)
	}
	if act.MapTasks != 5 || act.ReduceTasks != 5 {
		t.Errorf("scale-in to p=%d r=%d, want 5/5", act.MapTasks, act.ReduceTasks)
	}
}

// TestScaleInHoldsWhenReleaseWouldOverload: at two Map and three Reduce
// tasks a one-task release multiplies per-task load by up to 2, so a
// Zone-1 W of 0.75 would plan the next batch over the threshold. The
// controller holds, without a grace period, and releases once W is low
// enough for the release to fit.
func TestScaleInHoldsWhenReleaseWouldOverload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.D = 2
	c, err := NewController(cfg, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Flat signals: neither trend rises, so both stages would shrink, to
	// 1 and 2 tasks — a ratio of 2, predicting W 1.5.
	obs := Observation{W: 0.75, Tuples: 1000, Keys: 100}
	var act Action
	for i := 0; i < cfg.D; i++ {
		act = c.Observe(obs)
	}
	if act.Direction != 0 || act.MapTasks != 2 || act.ReduceTasks != 3 {
		t.Fatalf("released at W 0.75: %+v", act)
	}
	if !strings.HasPrefix(act.Reason, "no-op") {
		t.Errorf("guarded scale-in reason %q, want a no-op", act.Reason)
	}
	// No grace period: D batches at W 0.4 (predicting 0.8) release at
	// once.
	obs.W = 0.4
	for i := 0; i < cfg.D; i++ {
		act = c.Observe(obs)
	}
	if act.Direction != -1 || act.MapTasks != 1 || act.ReduceTasks != 2 {
		t.Fatalf("no release at W 0.4 right after the guarded hold: %+v", act)
	}

	// With the Map stage at its floor only Reduce can shrink, 3 -> 2: a
	// ratio of 1.5, so W 0.75 (1.125) holds and W 0.5 (0.75) releases.
	cfg.MinMapTasks = 2
	c, err = NewController(cfg, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		w    float64
		want int
	}{{0.75, 0}, {0.5, -1}} {
		obs.W = tc.w
		for i := 0; i < cfg.D; i++ {
			act = c.Observe(obs)
		}
		if act.Direction != tc.want {
			t.Fatalf("W %v at p=2 (floor) r=3: %+v, want direction %d", tc.w, act, tc.want)
		}
	}
	if act.MapTasks != 2 || act.ReduceTasks != 2 {
		t.Errorf("released to p=%d r=%d, want 2/2", act.MapTasks, act.ReduceTasks)
	}
}

func TestGracePeriodBlocksReverseDecision(t *testing.T) {
	cfg := DefaultConfig()
	cfg.D = 2
	c, err := NewController(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(Observation{W: 1.1, Tuples: 1000, Keys: 100})
	act := c.Observe(Observation{W: 1.1, Tuples: 1100, Keys: 110})
	if act.Direction != 1 {
		t.Fatalf("expected scale-out: %+v", act)
	}
	// Immediately under-utilized: grace must hold for D batches.
	for i := 0; i < cfg.D; i++ {
		act = c.Observe(Observation{W: 0.1, Tuples: 100, Keys: 10})
		if act.Direction != 0 {
			t.Fatalf("action during grace period: %+v", act)
		}
	}
	// After grace, D under-utilized observations trigger scale-in.
	c.Observe(Observation{W: 0.1, Tuples: 90, Keys: 9})
	act = c.Observe(Observation{W: 0.1, Tuples: 80, Keys: 8})
	if act.Direction != -1 {
		t.Errorf("no scale-in after grace: %+v", act)
	}
}

func TestZone2HoldsSteady(t *testing.T) {
	cfg := DefaultConfig()
	cfg.D = 1
	c, err := NewController(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		act := c.Observe(Observation{W: 0.85, Tuples: 1000, Keys: 100})
		if act.Direction != 0 {
			t.Fatalf("scaled inside the stability band: %+v", act)
		}
	}
}

func TestBoundsRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.D = 1
	cfg.MaxMapTasks = 5
	cfg.MaxReduceTasks = 5
	c, err := NewController(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Repeated overloads with growth in both signals: clamped at 5.
	n := 1000
	for i := 0; i < 20; i++ {
		n += 100
		act := c.Observe(Observation{W: 2.0, Tuples: n, Keys: n / 10})
		if act.MapTasks > 5 || act.ReduceTasks > 5 {
			t.Fatalf("exceeded max bounds: %+v", act)
		}
	}
	// Scale-in floor.
	c2, err := NewController(cfg, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := 10000
	for i := 0; i < 20; i++ {
		m -= 100
		act := c2.Observe(Observation{W: 0.01, Tuples: m, Keys: m / 10})
		if act.MapTasks < 1 || act.ReduceTasks < 1 {
			t.Fatalf("went below minimum: %+v", act)
		}
	}
}

func TestInterruptedOverloadResetsCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.D = 3
	c, err := NewController(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(Observation{W: 1.5, Tuples: 1000, Keys: 100})
	c.Observe(Observation{W: 1.5, Tuples: 1000, Keys: 100})
	c.Observe(Observation{W: 0.85, Tuples: 1000, Keys: 100}) // Zone 2 resets
	act := c.Observe(Observation{W: 1.5, Tuples: 1000, Keys: 100})
	if act.Direction != 0 {
		t.Errorf("scaled without d consecutive overloads: %+v", act)
	}
}
