package prompt

import (
	"fmt"
	"slices"

	"prompt/internal/core"
	"prompt/internal/elastic"
	"prompt/internal/engine"
)

// ElasticPolicy names an autoscaling policy for WithElasticity:
// ElasticThreshold (the default) or ElasticCostAware. Policies are
// deterministic functions of the per-batch reports, so elastic runs
// replay bit-identically; the migration machinery keeps windowed answers
// bit-identical to a static run regardless of how often the policy acts.
type ElasticPolicy string

// The built-in autoscaling policies.
const (
	// ElasticThreshold is the paper's Algorithm 4: scale out after the
	// stability ratio W exceeds the threshold for d consecutive batches,
	// scale in after it stays below threshold-step for d batches — one
	// task per stage at a time, and only if W scaled by the release would
	// stay under the threshold. The default.
	ElasticThreshold ElasticPolicy = "threshold"
	// ElasticCostAware plans with the simulator's cost model: each batch
	// it searches the (map, reduce) grid for the cheapest configuration
	// whose predicted W sits inside the stability band, calibrated
	// against the observed W, and can release several tasks at once.
	ElasticCostAware ElasticPolicy = "cost"
)

// String returns the policy's parseable name.
func (p ElasticPolicy) String() string {
	if p == "" {
		return string(ElasticThreshold)
	}
	return string(p)
}

// ElasticPolicies lists the built-in policies in stable order.
func ElasticPolicies() []ElasticPolicy {
	return []ElasticPolicy{ElasticThreshold, ElasticCostAware}
}

// ParseElasticPolicy resolves a policy name; the empty string selects
// ElasticThreshold. Unknown names wrap ErrBadConfig.
func ParseElasticPolicy(s string) (ElasticPolicy, error) {
	if s == "" {
		return ElasticThreshold, nil
	}
	if p := ElasticPolicy(s); slices.Contains(ElasticPolicies(), p) {
		return p, nil
	}
	return "", fmt.Errorf("%w: unknown elastic policy %q (have %v)", ErrBadConfig, s, ElasticPolicies())
}

// Elasticity configures automatic scaling; see Config.Elasticity and
// WithElasticity. The zero value keeps the stream static.
type Elasticity struct {
	// Policy selects the autoscaling policy; the zero value selects
	// ElasticThreshold.
	Policy ElasticPolicy
	// MinTasks and MaxTasks bound the per-stage parallelism the policy
	// may choose. MinTasks 0 means 1; MaxTasks 0 leaves scale-out
	// unbounded (the cost-aware planner still caps its search at 64).
	MinTasks int
	MaxTasks int
}

// enabled reports whether the configuration asks for elasticity at all.
func (e Elasticity) enabled() bool {
	return e.Policy != "" || e.MinTasks > 0 || e.MaxTasks > 0
}

// build resolves the elasticity settings against the engine into the
// driver that observes every committed batch and applies the policy's
// decisions; nil when elasticity is off. Errors wrap ErrBadConfig.
func (e Elasticity) build(eng *engine.Engine) (*core.ElasticDriver, error) {
	if !e.enabled() {
		return nil, nil
	}
	min, max := e.MinTasks, e.MaxTasks
	if min == 0 {
		min = 1
	}
	if min < 1 || (max != 0 && max < min) {
		return nil, fmt.Errorf("%w: elasticity bounds [%d, %d] are inverted", ErrBadConfig, e.MinTasks, e.MaxTasks)
	}
	ec := eng.Config()
	m, r := ec.MapTasks, ec.ReduceTasks
	if m < min || r < min || (max != 0 && (m > max || r > max)) {
		return nil, fmt.Errorf("%w: initial parallelism p=%d r=%d outside elasticity bounds [%d, %d]",
			ErrBadConfig, m, r, min, max)
	}
	cfg := elastic.DefaultConfig()
	cfg.MinMapTasks, cfg.MinReduceTasks = min, min
	cfg.MaxMapTasks, cfg.MaxReduceTasks = max, max
	p, err := elastic.New(string(e.Policy), cfg, ec.Cost, ec.BatchInterval, m, r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	d, err := core.NewElasticDriver(eng, p, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return d, nil
}
