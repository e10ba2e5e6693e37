package core

import (
	"fmt"

	"prompt/internal/cluster"
	"prompt/internal/elastic"
	"prompt/internal/engine"
	"prompt/internal/tuple"
	"prompt/internal/workload"
)

// ElasticDriver couples an engine with an auto-scale policy (the
// threshold controller of Algorithm 4, or the cost-aware planner) and,
// optionally, an executor pool: after every batch the policy observes W
// and the batch statistics, decides the next parallelism, and Observe
// applies it — the Figure 12 setup, and the public API's elastic streams.
type ElasticDriver struct {
	Engine *engine.Engine
	Policy elastic.Policy
	Pool   *cluster.ExecutorPool // nil leaves the engine's cores alone
}

// NewElasticDriver wires the components; p may be nil. The engine's
// initial parallelism must match the policy's.
func NewElasticDriver(e *engine.Engine, c elastic.Policy, p *cluster.ExecutorPool) (*ElasticDriver, error) {
	if e == nil || c == nil {
		return nil, fmt.Errorf("core: elastic driver needs an engine and a policy")
	}
	cm, cr := c.Parallelism()
	if cfg := e.Config(); cfg.MapTasks != cm || cfg.ReduceTasks != cr {
		return nil, fmt.Errorf("core: engine parallelism p=%d r=%d differs from policy p=%d r=%d",
			cfg.MapTasks, cfg.ReduceTasks, cm, cr)
	}
	d := &ElasticDriver{Engine: e, Policy: c, Pool: p}
	if err := d.fitCores(cm, cr); err != nil {
		return nil, err
	}
	return d, nil
}

// RunBatches processes n consecutive batches from the source, applying the
// policy's decision between batches.
func (d *ElasticDriver) RunBatches(src workload.Stream, n int) ([]engine.BatchReport, error) {
	reports := make([]engine.BatchReport, 0, n)
	for i := 0; i < n; i++ {
		start := d.Engine.Now()
		end := start + d.Engine.Config().BatchInterval
		tuples, err := src.Slice(start, end)
		if err != nil {
			return reports, err
		}
		rep, _, err := d.Step(tuples, start, end)
		if err != nil {
			return reports, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// Step processes one batch, then applies and returns the resulting
// scaling decision (Observe).
func (d *ElasticDriver) Step(tuples []tuple.Tuple, start, end tuple.Time) (engine.BatchReport, elastic.Action, error) {
	rep, err := d.Engine.Step(tuples, start, end)
	if err != nil {
		return rep, elastic.Action{}, err
	}
	act, err := d.Observe(rep)
	return rep, act, err
}

// Observe feeds one committed batch's report to the policy and applies
// its decision for subsequent batches: the new parallelism, with a pool
// the executors and cores, and key-range ownership following the Map task
// count (the window state of moved ranges hands off bit-identically at
// the next batch boundary). A hold changes nothing. It is the only code
// that turns an elastic.Action into engine state.
func (d *ElasticDriver) Observe(rep engine.BatchReport) (elastic.Action, error) {
	act := d.Policy.Observe(elastic.Observation{W: rep.W, Tuples: rep.Tuples, Keys: rep.Keys})
	if act.Direction == 0 {
		return act, nil
	}
	if err := d.Engine.SetParallelism(act.MapTasks, act.ReduceTasks); err != nil {
		return act, err
	}
	if err := d.fitCores(act.MapTasks, act.ReduceTasks); err != nil {
		return act, err
	}
	return act, d.Engine.Rescale(act.MapTasks)
}

// fitCores acquires or releases executors so the held cores cover the
// widest stage, and hands the engine that core budget. Without a pool it
// does nothing.
func (d *ElasticDriver) fitCores(mapTasks, reduceTasks int) error {
	if d.Pool == nil {
		return nil
	}
	per := d.Pool.CoresPerExecutor()
	needExec := (max(mapTasks, reduceTasks) + per - 1) / per
	if needExec < 1 {
		needExec = 1
	}
	switch held := d.Pool.Held(); {
	case needExec > held:
		d.Pool.Acquire(needExec - held)
	case needExec < held:
		d.Pool.Release(held - needExec)
	}
	return d.Engine.SetCores(d.Pool.Cores())
}
