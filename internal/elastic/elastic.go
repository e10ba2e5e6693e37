// Package elastic implements Prompt's dynamic resource management
// (Algorithm 4, Latency-aware Auto-Scale): a threshold-based controller
// that watches the stability ratio W = processing time / batch interval
// and adjusts the degree of execution parallelism. The controller defines
// three elasticity zones (Figure 9b): in Zone 3 (W above the threshold for
// d consecutive batches) it scales out; in Zone 1 (W below threshold-step
// for d batches) it scales in, unless the release would push W back over
// the threshold; Zone 2 between them absorbs load spikes without action.
// Rate growth adds Map tasks, distribution (distinct-key) growth adds
// Reduce tasks, and a grace period of d batches follows every action so
// no reverse decision is made immediately.
package elastic

import "fmt"

// Config tunes the controller. The defaults are the paper's settings:
// threshold 90%, step 10%, and a small consecutive-batch count d.
type Config struct {
	// Threshold is the upper load threshold (paper: 0.9).
	Threshold float64
	// Step widens the stability band downward; scale-in triggers below
	// Threshold-Step (paper: 0.1).
	Step float64
	// D is the number of consecutive batches a condition must hold, and
	// also the grace period after an action.
	D int
	// MaxMapTasks / MaxReduceTasks bound scale-out (the executor pool's
	// capacity); 0 means unbounded.
	MaxMapTasks    int
	MaxReduceTasks int
	// MinMapTasks / MinReduceTasks bound scale-in (default 1).
	MinMapTasks    int
	MinReduceTasks int
}

// DefaultConfig returns the paper's controller settings.
func DefaultConfig() Config {
	return Config{Threshold: 0.9, Step: 0.1, D: 3, MinMapTasks: 1, MinReduceTasks: 1}
}

// resolve fills the zero fields with the defaults, validates the result,
// and checks that a policy may start at the given parallelism.
func (c Config) resolve(mapTasks, reduceTasks int) (Config, error) {
	if c.Threshold == 0 {
		c.Threshold = 0.9
	}
	if c.Step == 0 {
		c.Step = 0.1
	}
	if c.D == 0 {
		c.D = 3
	}
	if c.MinMapTasks == 0 {
		c.MinMapTasks = 1
	}
	if c.MinReduceTasks == 0 {
		c.MinReduceTasks = 1
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	if mapTasks < c.MinMapTasks || reduceTasks < c.MinReduceTasks {
		return c, fmt.Errorf("elastic: initial parallelism p=%d r=%d below minimums", mapTasks, reduceTasks)
	}
	return c, nil
}

// Validate rejects inconsistent settings.
func (c Config) Validate() error {
	if c.Threshold <= 0 || c.Threshold > 2 {
		return fmt.Errorf("elastic: threshold %v outside (0, 2]", c.Threshold)
	}
	if c.Step <= 0 || c.Step >= c.Threshold {
		return fmt.Errorf("elastic: step %v outside (0, threshold)", c.Step)
	}
	if c.D < 1 {
		return fmt.Errorf("elastic: d must be >= 1, got %d", c.D)
	}
	return nil
}

// Observation is one batch's signals: the stability ratio plus the two
// statistics Algorithm 1 computes that attribute load to its cause.
type Observation struct {
	// W is processing time / batch interval.
	W float64
	// Tuples is the batch's data rate signal (N_C).
	Tuples int
	// Keys is the batch's data distribution signal (|K|).
	Keys int
}

// Action is the controller's decision for the next batch.
type Action struct {
	// MapTasks and ReduceTasks are the new parallelism degrees.
	MapTasks    int
	ReduceTasks int
	// Direction explains the decision: +1 scale-out, -1 scale-in, 0 hold.
	Direction int
	// Reason is a human-readable explanation for logs and reports.
	Reason string
}

// Zone identifies the elasticity zone of an observation (Figure 9b).
type Zone int

// Elasticity zones.
const (
	Zone1 Zone = 1 // under-utilized: candidates for scale-in
	Zone2 Zone = 2 // stability band: no action
	Zone3 Zone = 3 // overloaded: candidates for scale-out
)

// Controller holds the rolling state of Algorithm 4.
type Controller struct {
	cfg Config

	mapTasks    int
	reduceTasks int

	overCount  int
	underCount int
	grace      int

	// Rolling statistics over the last d batches, used to attribute load
	// changes to data rate vs data distribution.
	tupleHist []int
	keyHist   []int
}

// NewController returns a controller starting at the given parallelism.
func NewController(cfg Config, mapTasks, reduceTasks int) (*Controller, error) {
	cfg, err := cfg.resolve(mapTasks, reduceTasks)
	if err != nil {
		return nil, err
	}
	return &Controller{cfg: cfg, mapTasks: mapTasks, reduceTasks: reduceTasks}, nil
}

// Parallelism returns the current task counts.
func (c *Controller) Parallelism() (mapTasks, reduceTasks int) {
	return c.mapTasks, c.reduceTasks
}

// ZoneOf classifies an observation.
func (c *Controller) ZoneOf(w float64) Zone {
	switch {
	case w > c.cfg.Threshold:
		return Zone3
	case w <= c.cfg.Threshold-c.cfg.Step:
		return Zone1
	default:
		return Zone2
	}
}

// Observe feeds one batch's signals and returns the action for the next
// batch. The returned parallelism equals the current one when no scaling
// triggers.
func (c *Controller) Observe(o Observation) Action {
	c.tupleHist = append(c.tupleHist, o.Tuples)
	c.keyHist = append(c.keyHist, o.Keys)
	if len(c.tupleHist) > 2*c.cfg.D {
		c.tupleHist = c.tupleHist[1:]
		c.keyHist = c.keyHist[1:]
	}

	hold := Action{MapTasks: c.mapTasks, ReduceTasks: c.reduceTasks, Direction: 0, Reason: "hold"}
	if c.grace > 0 {
		c.grace--
		c.overCount, c.underCount = 0, 0
		hold.Reason = "grace period"
		return hold
	}

	switch c.ZoneOf(o.W) {
	case Zone3:
		c.overCount++
		c.underCount = 0
		if c.overCount >= c.cfg.D {
			return c.scale(+1, o.W)
		}
	case Zone1:
		c.underCount++
		c.overCount = 0
		if c.underCount >= c.cfg.D {
			return c.scale(-1, o.W)
		}
	default:
		c.overCount, c.underCount = 0, 0
	}
	return hold
}

// scale applies a scale-out (+1) or scale-in (-1) decision, attributing it
// to rate and/or distribution growth over the last d batches. Scale-out is
// proportional to the overload — the pseudocode's "the process repeats
// until W <= thres", collapsed into one decision so the system responds
// swiftly to spikes. Scale-in releases one task per stage, per the
// paper's Zone-1 description, and only if W times the largest old/new
// task ratio stays at or under the threshold: the same rule inverted, so
// a release never plans the next batch into Zone 3.
func (c *Controller) scale(dir int, w float64) Action {
	rateUp, keysUp := c.trends()
	reason := ""
	adjustMap, adjustReduce := false, false
	switch {
	case dir > 0:
		// Scale out: rate growth needs more Mappers, distribution growth
		// more Reducers; if neither signal moved, add both (generic
		// overload).
		adjustMap = rateUp
		adjustReduce = keysUp
		if !adjustMap && !adjustReduce {
			adjustMap, adjustReduce = true, true
			reason = "overloaded (no attributable trend): add map+reduce"
		} else {
			reason = fmt.Sprintf("overloaded: rate-up=%v keys-up=%v", rateUp, keysUp)
		}
	default:
		// Scale in by the same criteria, reversed: shrinking rate releases
		// Mappers, shrinking distribution releases Reducers.
		adjustMap = !rateUp
		adjustReduce = !keysUp
		reason = fmt.Sprintf("under-utilized: rate-up=%v keys-up=%v", rateUp, keysUp)
	}

	oldMap, oldReduce := c.mapTasks, c.reduceTasks
	stepOf := func(tasks int) int {
		if dir < 0 {
			return -1
		}
		// Proportional growth: enough tasks that the observed W would
		// fall back to the threshold, at least one.
		grow := int(float64(tasks)*(w/c.cfg.Threshold-1) + 0.5)
		if grow < 1 {
			grow = 1
		}
		return grow
	}
	if adjustMap {
		c.mapTasks += stepOf(c.mapTasks)
	}
	if adjustReduce {
		c.reduceTasks += stepOf(c.reduceTasks)
	}
	c.clamp()
	c.overCount, c.underCount = 0, 0
	if dir < 0 {
		shrink := max(float64(oldMap)/float64(c.mapTasks), float64(oldReduce)/float64(c.reduceTasks))
		if predicted := w * shrink; predicted > c.cfg.Threshold {
			c.mapTasks, c.reduceTasks = oldMap, oldReduce
			reason = fmt.Sprintf("%s; predicted W %.2f after release above threshold", reason, predicted)
		}
	}
	if c.mapTasks == oldMap && c.reduceTasks == oldReduce {
		// Attribution, bounds or the scale-in guard left the plan
		// unchanged: report a hold and skip the grace period so a genuine
		// trend can act promptly.
		return Action{MapTasks: c.mapTasks, ReduceTasks: c.reduceTasks, Direction: 0,
			Reason: "no-op (" + reason + ")"}
	}
	c.grace = c.cfg.D
	return Action{MapTasks: c.mapTasks, ReduceTasks: c.reduceTasks, Direction: dir, Reason: reason}
}

// trends compares the first and second halves of the rolling window to
// decide whether the data rate and the key distribution are growing.
func (c *Controller) trends() (rateUp, keysUp bool) {
	n := len(c.tupleHist)
	if n < 2 {
		return true, true
	}
	half := n / 2
	var t0, t1, k0, k1 float64
	for i := 0; i < half; i++ {
		t0 += float64(c.tupleHist[i])
		k0 += float64(c.keyHist[i])
	}
	for i := half; i < n; i++ {
		t1 += float64(c.tupleHist[i])
		k1 += float64(c.keyHist[i])
	}
	t0 /= float64(half)
	k0 /= float64(half)
	t1 /= float64(n - half)
	k1 /= float64(n - half)
	return t1 > t0, k1 > k0
}

func (c *Controller) clamp() {
	if c.cfg.MaxMapTasks > 0 && c.mapTasks > c.cfg.MaxMapTasks {
		c.mapTasks = c.cfg.MaxMapTasks
	}
	if c.cfg.MaxReduceTasks > 0 && c.reduceTasks > c.cfg.MaxReduceTasks {
		c.reduceTasks = c.cfg.MaxReduceTasks
	}
	if c.mapTasks < c.cfg.MinMapTasks {
		c.mapTasks = c.cfg.MinMapTasks
	}
	if c.reduceTasks < c.cfg.MinReduceTasks {
		c.reduceTasks = c.cfg.MinReduceTasks
	}
}
