package prompt

import (
	"fmt"
)

// MultiStream runs several queries over one input stream. The batching
// phase — frequency-aware statistics and partitioning — executes once per
// batch and all queries share the resulting data blocks; each query then
// runs as its own Map-Reduce job. Reports describe the primary query
// (index 0) in their per-stage details, while ProcessingTime and stability
// account for all jobs.
//
// MultiStream shares Stream's runtime: the batch lifecycle, Reconfigure,
// elasticity, rescaling, checkpointing, and the cluster surface are
// identical; MultiStream's answer accessors take a query index.
type MultiStream struct {
	streamCore
	names []string
}

// NewMulti builds a multi-query stream; it is NewMultiWithOptions for
// callers that already hold a Config literal. At least one query is
// required. Configuration failures wrap ErrBadConfig; cluster connection
// failures (cfg.Topology) wrap ErrCluster.
func NewMulti(cfg Config, queries ...Query) (*MultiStream, error) {
	c, err := newCore(cfg, queries)
	if err != nil {
		return nil, err
	}
	return &MultiStream{streamCore: c, names: queryNames(queries)}, nil
}

// Queries returns the query names in index order.
func (m *MultiStream) Queries() []string { return append([]string(nil), m.names...) }

// Result returns query i's previous batch output.
func (m *MultiStream) Result(i int) (map[string]float64, error) {
	if err := m.check(i); err != nil {
		return nil, err
	}
	return m.eng.LastResultOf(i), nil
}

// Window returns query i's current window answer (nil for windowless
// queries).
func (m *MultiStream) Window(i int) (map[string]float64, error) {
	if err := m.check(i); err != nil {
		return nil, err
	}
	agg := m.eng.WindowOf(i)
	if agg == nil {
		return nil, nil
	}
	return agg.Snapshot(), nil
}

// TopK returns the k largest entries of query i's window answer (none for
// k <= 0).
func (m *MultiStream) TopK(i, k int) ([]WindowEntry, error) {
	if err := m.check(i); err != nil {
		return nil, err
	}
	agg := m.eng.WindowOf(i)
	if agg == nil {
		return nil, fmt.Errorf("%w: query %d (%s)", ErrNoWindow, i, m.names[i])
	}
	return agg.TopK(k), nil
}

// HasWindow reports whether query i maintains a time window.
func (m *MultiStream) HasWindow(i int) (bool, error) {
	if err := m.check(i); err != nil {
		return false, err
	}
	return m.eng.WindowOf(i) != nil, nil
}

// RestoreMulti rebuilds a MultiStream from a Checkpoint image; cfg and
// queries must match the checkpointed stream's. See Restore.
func RestoreMulti(cfg Config, image []byte, queries ...Query) (*MultiStream, error) {
	c, err := restoreCore(cfg, queries, image)
	if err != nil {
		return nil, err
	}
	return &MultiStream{streamCore: c, names: queryNames(queries)}, nil
}

func queryNames(queries []Query) []string {
	names := make([]string, len(queries))
	for i, q := range queries {
		names[i] = q.Name
	}
	return names
}

func (m *MultiStream) check(i int) error {
	if i < 0 || i >= len(m.names) {
		return fmt.Errorf("prompt: query index %d outside [0,%d)", i, len(m.names))
	}
	return nil
}
