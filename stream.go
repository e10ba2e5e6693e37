package prompt

import (
	"fmt"
)

// BatchSource yields the tuples of one batch interval [start, end). Run
// and RunContext pull from it once per batch; returned tuples must carry
// timestamps inside the interval.
type BatchSource func(start, end Time) ([]Tuple, error)

// FixedBatches adapts pre-materialized batch slices into a BatchSource:
// call i returns batches[i] regardless of the interval bounds, and an
// error after the slices run out.
func FixedBatches(batches ...[]Tuple) BatchSource {
	i := 0
	return func(start, end Time) ([]Tuple, error) {
		if i >= len(batches) {
			return nil, fmt.Errorf("prompt: batch source exhausted after %d batches", len(batches))
		}
		b := batches[i]
		i++
		return b, nil
	}
}

// Stream is a running streaming query on the micro-batch engine. Feed it
// one batch interval of tuples at a time with ProcessBatch; read windowed
// answers with Window/TopK and performance measurements from the returned
// reports. A Stream is not safe for concurrent use — like the Spark
// driver, one goroutine owns the batch lifecycle.
//
// Stream and MultiStream share one runtime: the batch lifecycle,
// Reconfigure, elasticity, rescaling, checkpointing, and the cluster
// surface are identical; Stream adds the single-query answer accessors.
type Stream struct {
	streamCore
}

// New builds a Stream for the query under the given configuration. It is
// NewWithOptions for callers that already hold a Config literal.
// Configuration failures wrap ErrBadConfig; when cfg.Topology names a
// cluster, New dials and handshakes every shard before returning, and
// connection failures wrap ErrCluster.
func New(cfg Config, q Query) (*Stream, error) {
	c, err := newCore(cfg, []Query{q})
	if err != nil {
		return nil, err
	}
	return &Stream{streamCore: c}, nil
}

// Result returns the previous batch's per-key Reduce output.
func (s *Stream) Result() map[string]float64 { return s.eng.LastResult() }

// Window returns the current window answer (nil for windowless queries).
func (s *Stream) Window() map[string]float64 { return s.eng.WindowSnapshot() }

// HasWindow reports whether the query maintains a time window; when it
// does not, Window returns nil and TopK returns ErrNoWindow.
func (s *Stream) HasWindow() bool { return s.eng.Window() != nil }

// TopK returns the k largest entries of the current window answer (none
// for k <= 0). For a windowless query it returns an error wrapping
// ErrNoWindow.
func (s *Stream) TopK(k int) ([]WindowEntry, error) {
	agg := s.eng.Window()
	if agg == nil {
		return nil, ErrNoWindow
	}
	return agg.TopK(k), nil
}

// Restore rebuilds a Stream from a Checkpoint image. cfg and q must
// match the checkpointed stream's configuration — query functions cannot
// be serialized, so the caller reattaches them; determinism of the query
// functions is what makes the resumed computation identical. A topology
// in cfg is dialed exactly as in New. A rescale pending at checkpoint
// time completes at the restored stream's next batch boundary.
func Restore(cfg Config, q Query, image []byte) (*Stream, error) {
	c, err := restoreCore(cfg, []Query{q}, image)
	if err != nil {
		return nil, err
	}
	return &Stream{streamCore: c}, nil
}

// buildConfig folds options over the zero Config.
func buildConfig(opts []Option) (Config, error) {
	var cfg Config
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}
