package elastic

import (
	"fmt"
	"strings"

	"prompt/internal/metrics"
	"prompt/internal/tuple"
)

// Policy is the decision interface of the elastic driver: feed one
// batch's signals, get the parallelism for the next batch. Both built-in
// policies — the paper's threshold Controller (Algorithm 4) and the
// CostAware planner — are deterministic functions of the observation
// sequence, so elastic runs replay bit-identically.
type Policy interface {
	Observe(Observation) Action
	Parallelism() (mapTasks, reduceTasks int)
}

// The threshold controller is the reference policy.
var _ Policy = (*Controller)(nil)

// Names lists the policies New builds, the default first.
func Names() []string { return []string{"threshold", "cost"} }

// New builds the named policy starting at mapTasks and reduceTasks: ""
// and "threshold" select the Controller, "cost" the CostAware planner
// with the given cost model and batch interval (which the threshold
// controller ignores).
func New(name string, cfg Config, cost metrics.CostModel, interval tuple.Time, mapTasks, reduceTasks int) (Policy, error) {
	var (
		p   Policy
		err error
	)
	switch name {
	case "", "threshold":
		p, err = NewController(cfg, mapTasks, reduceTasks)
	case "cost":
		p, err = NewCostAware(cfg, cost, interval, mapTasks, reduceTasks)
	default:
		return nil, fmt.Errorf("elastic: unknown policy %q (have %s)", name, strings.Join(Names(), "|"))
	}
	if err != nil {
		return nil, err // not p: a typed nil would compare non-nil
	}
	return p, nil
}

// CostAware plans parallelism with the simulator's cost model: each
// batch it estimates the stage makespans every candidate (map, reduce)
// configuration would produce for the observed tuple and key counts —
// calibrated so the current configuration's estimate matches the
// observed W — and moves to the cheapest configuration whose predicted
// W sits inside the stability band. Unlike the threshold controller it
// can release several tasks at once when the load no longer justifies
// them, and it never scales past the point the model says would help.
type CostAware struct {
	cfg      Config
	model    metrics.CostModel
	interval tuple.Time

	mapTasks    int
	reduceTasks int
	grace       int
}

// NewCostAware returns a cost-model-driven policy. interval is the batch
// interval the stability ratio is judged against; model zero-values fall
// back to the default calibration.
func NewCostAware(cfg Config, model metrics.CostModel, interval tuple.Time, mapTasks, reduceTasks int) (*CostAware, error) {
	cfg, err := cfg.resolve(mapTasks, reduceTasks)
	if err != nil {
		return nil, err
	}
	if interval <= 0 {
		return nil, fmt.Errorf("elastic: cost-aware policy needs a positive batch interval, got %v", interval)
	}
	if model == (metrics.CostModel{}) {
		model = metrics.DefaultCostModel()
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &CostAware{cfg: cfg, model: model, interval: interval, mapTasks: mapTasks, reduceTasks: reduceTasks}, nil
}

// Parallelism implements Policy.
func (c *CostAware) Parallelism() (int, int) { return c.mapTasks, c.reduceTasks }

// estimate is the model's raw stability ratio for a configuration: the
// Eq.-1 stage time (max Map task + max Reduce task, both stages fully
// parallel) over the batch interval, with tuples and keys spread evenly
// across tasks. Cross-Map key fragmentation is deliberately NOT modeled
// here: it depends on the partitioning scheme and key skew, both
// invisible to the policy, and any guess would be non-monotone in the
// task counts (m=1 never fragments), letting the search "escape" into
// degenerate plans. The calibration ratio in Observe absorbs the real
// fragmentation cost instead, keeping the estimate monotone so more
// tasks always predict less stage time.
func (c *CostAware) estimate(m, r, tuples, keys int) float64 {
	mapT := c.model.MapTaskTime(ceilDiv(tuples, m), ceilDiv(keys, m))
	reduceT := c.model.ReduceTaskTime(ceilDiv(tuples, r), 0)
	return float64(mapT+reduceT) / float64(c.interval)
}

// Observe implements Policy: search the candidate grid for the cheapest
// configuration predicted to hold W inside the stability band.
func (c *CostAware) Observe(o Observation) Action {
	hold := Action{MapTasks: c.mapTasks, ReduceTasks: c.reduceTasks, Direction: 0, Reason: "hold"}
	if c.grace > 0 {
		c.grace--
		hold.Reason = "grace period"
		return hold
	}
	if o.Tuples == 0 || o.W <= 0 {
		return hold
	}
	// Hysteresis: inside the stability band the current configuration is
	// doing its job — re-planning there trades answers-neutral churn for
	// nothing (and model error would make it flap).
	if o.W <= c.cfg.Threshold && o.W > c.cfg.Threshold-c.cfg.Step {
		return hold
	}
	underUtilized := o.W <= c.cfg.Threshold-c.cfg.Step
	// Calibrate the model against reality: whatever the model misses
	// (scheduling, limited cores, stragglers) is folded into the ratio
	// between the observed W and the current configuration's estimate.
	base := c.estimate(c.mapTasks, c.reduceTasks, o.Tuples, o.Keys)
	if base <= 0 {
		return hold
	}
	calib := o.W / base

	maxMap, maxReduce := c.cfg.MaxMapTasks, c.cfg.MaxReduceTasks
	if maxMap <= 0 {
		maxMap = 64
	}
	if maxReduce <= 0 {
		maxReduce = 64
	}
	target := c.cfg.Threshold - c.cfg.Step/2 // aim mid-band, not at the cliff
	bestM, bestR, bestFits := 0, 0, false
	bestW := 0.0
	for m := c.cfg.MinMapTasks; m <= maxMap; m++ {
		for r := c.cfg.MinReduceTasks; r <= maxReduce; r++ {
			w := calib * c.estimate(m, r, o.Tuples, o.Keys)
			fits := w <= target
			better := false
			switch {
			case bestM == 0:
				better = true
			case fits != bestFits:
				better = fits
			case fits:
				// Both fit: cheapest wins, deterministic tie-break.
				better = m+r < bestM+bestR || (m+r == bestM+bestR && m < bestM)
			default:
				// Neither fits: least predicted overload wins.
				better = w < bestW
			}
			if better {
				bestM, bestR, bestFits, bestW = m, r, fits, w
			}
		}
	}
	if bestM == c.mapTasks && bestR == c.reduceTasks {
		return hold
	}
	dir := +1
	if bestM+bestR < c.mapTasks+c.reduceTasks {
		dir = -1
	}
	// An under-utilized system only ever releases tasks; a plan that
	// grows it comes from model error, not load, so hold instead.
	if underUtilized && dir > 0 {
		return hold
	}
	c.mapTasks, c.reduceTasks = bestM, bestR
	c.grace = c.cfg.D
	return Action{
		MapTasks:    bestM,
		ReduceTasks: bestR,
		Direction:   dir,
		Reason:      fmt.Sprintf("cost model: predicted W %.2f at p=%d r=%d", bestW, bestM, bestR),
	}
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
