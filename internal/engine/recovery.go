package engine

import (
	"fmt"
	"sync"

	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// BatchStore implements the paper's consistency mechanism (§8):
// exactly-once semantics at batch granularity. Each batch's raw input is
// replicated — as a copy of its column batch — when it is ingested; if a
// batch's in-memory output is lost (executor failure), the output is
// recomputed deterministically from the replicated input. A batch's
// replica is discarded once its output has exited the query window, at
// which point it can never be needed again. A BatchStore is safe for
// concurrent use: recoveries may replay old batches while the driver
// keeps ingesting new ones.
type BatchStore struct {
	mu      sync.RWMutex
	retain  tuple.Time   // window length: how long outputs stay relevant
	dict    *intern.Dict // the dictionary the replicas' IDs resolve in
	batches map[int]*tuple.ColumnBatch
}

// NewBatchStore returns a store that retains each batch until its end
// time falls out of the retain horizon (the query's window length; 0
// retains only the most recent batch interval). dict is the dictionary
// the stored batches' IDs are interned in — the engine's.
func NewBatchStore(retain tuple.Time, dict *intern.Dict) *BatchStore {
	return &BatchStore{retain: retain, dict: dict, batches: make(map[int]*tuple.ColumnBatch)}
}

// Len returns the number of replicated batches currently held.
func (s *BatchStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.batches)
}

// Put replicates one batch's raw input, interval included. The columns
// are copied: the store must survive the engine reusing its buffers.
func (s *BatchStore) Put(index int, cb *tuple.ColumnBatch) {
	cp := cb.Clone()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches[index] = cp
	s.evict(cp.End)
}

// evict drops batches whose output has exited the window ending at now.
// Callers hold the write lock.
func (s *BatchStore) evict(now tuple.Time) {
	cutoff := now - s.retain
	for idx, b := range s.batches {
		if b.End <= cutoff {
			delete(s.batches, idx)
		}
	}
}

// Get returns a stored batch's input, or false if it was never stored or
// already expired. The batch is the store's own copy; callers must not
// modify it.
func (s *BatchStore) Get(index int) (*tuple.ColumnBatch, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.batches[index]
	return b, ok
}

// Recompute re-executes the query over a replicated batch and returns its
// per-key output. The computation is deterministic — same partitioner,
// same assigner, same query — so the recovered output is identical to the
// lost one (the exactly-once guarantee). It runs on a throwaway engine so
// the live engine's accumulator and window state are untouched.
func (s *BatchStore) Recompute(index int, cfg Config, q Query) (map[string]float64, error) {
	results, _, err := s.Replay(index, cfg, []Query{q})
	if err != nil {
		return nil, err
	}
	return results[0].Map(s.dict), nil
}

// Replay recomputes every query's output for a replicated batch,
// returning the per-query results and the simulated processing time one
// recompute pass costs. The replay engine strips anything that could
// perturb the recomputation — the fault plan (a recovery must not injure
// itself), the observer, and the query windows (only the single batch's
// output matters) — so the recovered outputs are bit-identical to the
// originals.
func (s *BatchStore) Replay(index int, cfg Config, queries []Query) ([]Result, tuple.Time, error) {
	b, ok := s.Get(index)
	if !ok {
		return nil, 0, fmt.Errorf("engine: batch %d not in the replica store (expired or never stored)", index)
	}
	cfg.Faults = nil
	cfg.Observer = nil
	cfg.ValidateBatches = true
	stripped := make([]Query, len(queries))
	for i, q := range queries {
		stripped[i] = Query{Name: q.Name, Map: q.Map, Reduce: q.Reduce}
	}
	// The replay reads the live dictionary (append-only and safe for
	// concurrent use), so the replica's IDs need no re-interning.
	replay, err := newMulti(cfg, stripped, s.dict)
	if err != nil {
		return nil, 0, err
	}
	replay.now = b.Start
	rep, err := replay.StepColumns(b.Clone(), b.Start, b.End)
	if err != nil {
		return nil, 0, fmt.Errorf("engine: recomputing batch %d: %w", index, err)
	}
	results := make([]Result, len(queries))
	for i := range queries {
		results[i] = *replay.lastResults[i]
	}
	return results, rep.ProcessingTime, nil
}

// RecoverableEngine couples an engine with a batch store so every ingested
// batch is replicated before processing — the deployment mode the paper's
// consistency section describes.
type RecoverableEngine struct {
	*Engine
	Store *BatchStore
}

// NewRecoverable wraps an engine with input replication sized to the
// query's window (falling back to one batch interval for windowless
// queries).
func NewRecoverable(cfg Config, q Query) (*RecoverableEngine, error) {
	eng, err := New(cfg, q)
	if err != nil {
		return nil, err
	}
	retain := eng.cfg.BatchInterval
	if q.Window.Length > retain {
		retain = q.Window.Length
	}
	return &RecoverableEngine{Engine: eng, Store: NewBatchStore(retain, eng.dict)}, nil
}

// Step transposes and replicates the batch input, then processes it.
func (r *RecoverableEngine) Step(tuples []tuple.Tuple, start, end tuple.Time) (BatchReport, error) {
	if err := r.checkBatch(nil, start, end); err != nil {
		return BatchReport{}, err
	}
	cb, err := r.transpose(tuples, r.batchIdx)
	if err != nil {
		return BatchReport{}, err
	}
	cb.Start, cb.End = start, end
	r.Store.Put(r.batchIdx, cb)
	return r.step(nil, cb, start, end)
}

// Recover recomputes the primary query's output for a batch after
// simulated state loss.
func (r *RecoverableEngine) Recover(index int) (map[string]float64, error) {
	return r.Store.Recompute(index, r.cfg, r.queries[0])
}
