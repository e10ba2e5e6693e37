package prompt

import (
	"fmt"
	"time"

	"prompt/internal/engine"
)

// Option adjusts a Config under construction. Options validate eagerly:
// an out-of-range value fails NewWithOptions with an error wrapping
// ErrBadConfig, naming the offending option.
type Option func(*Config) error

// NewWithOptions builds a Stream for the query from functional options
// layered over the zero Config (the evaluation defaults):
//
//	st, err := prompt.NewWithOptions(q,
//		prompt.WithBatchInterval(500*time.Millisecond),
//		prompt.WithParallelism(16, 16),
//		prompt.WithScheme(prompt.SchemePrompt),
//		prompt.WithWorkers(-1), // GOMAXPROCS goroutines
//	)
func NewWithOptions(q Query, opts ...Option) (*Stream, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return New(cfg, q)
}

// NewMultiWithOptions builds a MultiStream for the queries from the same
// functional options — the options-first spelling of NewMulti, and the
// construction path New, NewMulti, and NewWithOptions all reduce to. At
// least one query is required.
func NewMultiWithOptions(queries []Query, opts ...Option) (*MultiStream, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return NewMulti(cfg, queries...)
}

// WithBatchInterval sets the micro-batch heartbeat.
func WithBatchInterval(d time.Duration) Option {
	return func(c *Config) error {
		if d <= 0 {
			return fmt.Errorf("%w: WithBatchInterval(%v): interval must be positive", ErrBadConfig, d)
		}
		c.BatchInterval = d
		return nil
	}
}

// WithParallelism sets the Map (p) and Reduce (r) task counts.
func WithParallelism(mapTasks, reduceTasks int) Option {
	return func(c *Config) error {
		if mapTasks <= 0 || reduceTasks <= 0 {
			return fmt.Errorf("%w: WithParallelism(%d, %d): task counts must be positive", ErrBadConfig, mapTasks, reduceTasks)
		}
		c.MapTasks = mapTasks
		c.ReduceTasks = reduceTasks
		return nil
	}
}

// WithScheme selects the partitioning technique; the name is validated
// immediately.
func WithScheme(s Scheme) Option {
	return func(c *Config) error {
		parsed, err := ParseScheme(string(s))
		if err != nil {
			return err
		}
		c.Scheme = parsed
		return nil
	}
}

// WithCores sets the simulated core budget for stage execution.
func WithCores(cores int) Option {
	return func(c *Config) error {
		if cores <= 0 {
			return fmt.Errorf("%w: WithCores(%d): cores must be positive", ErrBadConfig, cores)
		}
		c.Cores = cores
		return nil
	}
}

// WithWorkers sets the number of real worker goroutines executing the
// batch pipeline. Zero keeps the single-goroutine driver; negative
// selects GOMAXPROCS. Reports are identical at any worker count.
func WithWorkers(workers int) Option {
	return func(c *Config) error {
		c.Workers = workers
		return nil
	}
}

// WithEarlyRelease sets the fraction of the batch interval reserved for
// partitioning (the paper bounds it at 0.05).
func WithEarlyRelease(fraction float64) Option {
	return func(c *Config) error {
		if fraction < 0 || fraction > 0.5 {
			return fmt.Errorf("%w: WithEarlyRelease(%v): fraction outside [0, 0.5]", ErrBadConfig, fraction)
		}
		c.EarlyReleaseFraction = fraction
		return nil
	}
}

// WithObserver registers a batch-lifecycle observer (see Observer and
// Collector). Calling it more than once composes the observers: each
// receives every event in registration order.
func WithObserver(obs Observer) Option {
	return func(c *Config) error {
		if obs == nil {
			return fmt.Errorf("%w: WithObserver(nil): observer must not be nil", ErrBadConfig)
		}
		switch prev := c.Observer.(type) {
		case nil:
			c.Observer = obs
		case MultiObserver:
			c.Observer = append(prev, obs)
		default:
			c.Observer = MultiObserver{prev, obs}
		}
		return nil
	}
}

// WithValidation toggles per-batch invariant checking.
func WithValidation(on bool) Option {
	return func(c *Config) error {
		c.Validate = on
		return nil
	}
}

// WithPipelineDepth bounds how many consecutive batches Run may keep in
// flight at once; see Config.PipelineDepth. Depth 0 or 1 keeps the
// classic one-batch-at-a-time driver. Pipelining never changes reports,
// answers, or checkpoints — only wall-clock time.
func WithPipelineDepth(depth int) Option {
	return func(c *Config) error {
		if depth < 0 || depth > engine.MaxPipelineDepth {
			return fmt.Errorf("%w: WithPipelineDepth(%d): depth outside [0, %d]", ErrBadConfig, depth, engine.MaxPipelineDepth)
		}
		c.PipelineDepth = depth
		return nil
	}
}

// WithCost overrides the simulated task cost model; the zero model keeps
// the defaults.
func WithCost(cm CostModel) Option {
	return func(c *Config) error {
		if cm != (CostModel{}) {
			if err := cm.Validate(); err != nil {
				return fmt.Errorf("%w: WithCost: %v", ErrBadConfig, err)
			}
		}
		c.Cost = cm
		return nil
	}
}

// WithElasticity turns the stream elastic: after every batch the policy
// observes the report and may change the Map and Reduce parallelism
// within [min, max] tasks per stage (min 0 means 1, max 0 leaves
// scale-out unbounded). Key-range ownership follows the Map task count,
// and the window state of reassigned ranges migrates bit-identically at
// the batch boundary — elastic runs report the same answers as static
// ones. Cores are left as configured. See ElasticThreshold and
// ElasticCostAware.
func WithElasticity(policy ElasticPolicy, min, max int) Option {
	return func(c *Config) error {
		if _, err := ParseElasticPolicy(string(policy)); err != nil {
			return fmt.Errorf("WithElasticity: %w", err)
		}
		if min < 0 || (max != 0 && max < min) || max < 0 {
			return fmt.Errorf("%w: WithElasticity(%q, %d, %d): bounds are inverted", ErrBadConfig, policy, min, max)
		}
		c.Elasticity = Elasticity{Policy: policy, MinTasks: min, MaxTasks: max}
		return nil
	}
}
