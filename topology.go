package prompt

import (
	"fmt"
	"time"

	"prompt/internal/dist"
	"prompt/internal/engine"
	"prompt/internal/transport"
)

// Topology describes the shard cluster a Stream scatters its data-plane
// folds across. The zero value runs everything in-process (no cluster).
// Exactly one of Shards and Local may be set.
//
// Distribution never changes answers: the driver keeps the whole control
// plane — statistics, partitioning, scheduling, fault simulation, window
// state — and ships only pure per-block Map and per-bucket Reduce folds
// to the shards, so reports and windows are bit-identical to a
// single-process run at any topology.
type Topology struct {
	// Shards lists one socket address per shard runtime, in shard order.
	// Addresses containing a path separator or prefixed "unix:" dial
	// unix-domain sockets; everything else dials TCP ("tcp:" forces it).
	// Each address must be served by `promptd shard` (or a
	// transport-served shard runtime) holding the same queries.
	Shards []string
	// Local runs that many in-process shard runtimes over the loopback
	// transport: the full wire codec and coordinator logic with zero
	// scheduling nondeterminism. The migration and testing topology.
	Local int
	// ExchangeTimeout bounds each request-reply exchange on socket
	// transports; 0 selects the 30 s default, negative disables deadlines.
	ExchangeTimeout time.Duration
	// Retry tunes the dial/redial backoff for socket transports; the zero
	// value selects the defaults (see RetryPolicy).
	Retry RetryPolicy
}

// enabled reports whether the topology asks for a cluster at all.
func (t Topology) enabled() bool { return len(t.Shards) > 0 || t.Local > 0 }

// validate checks the topology shape; errors wrap ErrBadConfig.
func (t Topology) validate() error {
	if len(t.Shards) > 0 && t.Local > 0 {
		return fmt.Errorf("%w: topology sets both Shards (%d addresses) and Local (%d)",
			ErrBadConfig, len(t.Shards), t.Local)
	}
	if t.Local < 0 {
		return fmt.Errorf("%w: topology Local %d must not be negative", ErrBadConfig, t.Local)
	}
	for i, a := range t.Shards {
		if a == "" {
			return fmt.Errorf("%w: topology shard %d has an empty address", ErrBadConfig, i)
		}
	}
	return nil
}

// connect builds the topology's transport and coordinator and installs
// the coordinator as the engine's job executor. Connection failures wrap
// ErrCluster.
func (t Topology) connect(eng *engine.Engine, queries []Query) (*dist.Coordinator, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	if !t.enabled() {
		return nil, nil
	}
	var tr transport.Transport
	if len(t.Shards) > 0 {
		var opts []transport.NetOption
		if t.ExchangeTimeout != 0 {
			d := t.ExchangeTimeout
			if d < 0 {
				d = 0
			}
			opts = append(opts, transport.WithTimeout(d))
		}
		if t.Retry != (RetryPolicy{}) {
			opts = append(opts, transport.WithRetry(t.Retry))
		}
		tr = transport.NewNet(t.Shards, opts...)
	} else {
		handlers := make([]transport.Handler, t.Local)
		for i := range handlers {
			handlers[i] = dist.NewShard(i, queries)
		}
		tr = transport.NewLoopback(handlers...)
	}
	coord, err := dist.NewCoordinator(tr, eng.Config().BatchInterval, queries)
	if err != nil {
		tr.Close()
		return nil, fmt.Errorf("%w: %v", ErrCluster, err)
	}
	eng.SetExecutor(coord)
	return coord, nil
}

// WithShards runs the stream's Map and Reduce folds on n in-process
// shard runtimes behind the loopback transport — the full cluster code
// path, including the wire codec, without sockets. Reports and answers
// are identical to the single-process engine.
func WithShards(n int) Option {
	return func(c *Config) error {
		if n < 1 {
			return fmt.Errorf("%w: WithShards(%d): need at least one shard", ErrBadConfig, n)
		}
		c.Topology = Topology{Local: n}
		return nil
	}
}

// WithTopology connects the stream to the cluster the topology describes
// — socket shard addresses or in-process Local runtimes — validating the
// shape eagerly; dialing happens at construction. It is the canonical
// topology option; WithShards remains as shorthand for in-process
// clusters.
func WithTopology(t Topology) Option {
	return func(c *Config) error {
		if !t.enabled() {
			return fmt.Errorf("%w: WithTopology: topology names no shards", ErrBadConfig)
		}
		if err := t.validate(); err != nil {
			return fmt.Errorf("WithTopology: %w", err)
		}
		c.Topology = t
		return nil
	}
}
