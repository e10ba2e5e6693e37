package check

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"prompt/internal/backpressure"
	"prompt/internal/core"
	"prompt/internal/dist"
	"prompt/internal/engine"
	"prompt/internal/fault"
	"prompt/internal/transport"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// Run executes every invariant of one scenario and returns the
// violations found (empty = clean). The pipeline wall clock is frozen for
// the duration, so every report field is a pure function of the scenario
// and runs compare bit for bit.
func Run(sc Scenario) []string {
	restore := engine.StubClock(func() time.Time { return time.Unix(0, 0) })
	defer restore()

	var violations []string
	batches, err := materialize(sc)
	if err != nil {
		return []string{fmt.Sprintf("workload generation failed: %v", err)}
	}
	violations = append(violations, checkSchemeAndWindowInvariants(sc, batches)...)
	violations = append(violations, checkFaultEquivalence(sc, batches)...)
	violations = append(violations, checkPermutationInvariance(sc, batches)...)
	violations = append(violations, checkCheckpointEquivalence(sc)...)
	violations = append(violations, checkTransportEquivalence(sc, batches)...)
	violations = append(violations, checkMigrationEquivalence(sc, batches)...)
	violations = append(violations, checkPipelineEquivalence(sc, batches)...)
	violations = append(violations, checkApproxInvariant(sc, batches)...)
	return violations
}

// replayStream adapts the materialized batches to the engine's pull
// interface so the pipelined driver runs over literally the same inputs
// as every other invariant.
type replayStream struct{ batches [][]tuple.Tuple }

func (r replayStream) Slice(start, end tuple.Time) ([]tuple.Tuple, error) {
	i := int(start / tuple.Second)
	if i < 0 || i >= len(r.batches) {
		return nil, fmt.Errorf("check: replay slice [%d, %d) outside the materialized run", start, end)
	}
	return r.batches[i], nil
}

func (r replayStream) Reset() {}

// checkPipelineEquivalence is invariant 9: overlapping consecutive
// batches must be a wall-clock-only optimization. At PipelineDepth 2 and
// 3 — in-process and with the data-plane folds scattered over loopback
// and pipe shard clusters — every BatchReport and the final window
// answer must be bit-identical to the classic depth-1 run. The clock is
// frozen by Run, so "bit-identical" includes every timing field.
func checkPipelineEquivalence(sc Scenario, batches [][]tuple.Tuple) []string {
	scheme, err := core.ByName(sc.Scheme)
	if err != nil {
		return []string{err.Error()}
	}
	refSnaps, refReports, _, err := snapshotsOf(sc, scheme, sc.Workers, batches)
	if err != nil {
		return []string{fmt.Sprintf("pipeline reference failed: %v", err)}
	}
	refWindow := refSnaps[len(refSnaps)-1]
	shards := 2 + int(sc.Seed%2) // match the transport invariant's topology
	queries := []engine.Query{query(sc)}
	for _, depth := range []int{2, 3} {
		for _, backend := range []string{"inprocess", "loopback", "pipe"} {
			violations := func() []string {
				cfg := scheme.Apply(baseConfig(sc.Workers))
				cfg.PipelineDepth = depth
				eng, err := engine.New(cfg, queries[0])
				if err != nil {
					return []string{fmt.Sprintf("pipeline %s engine: %v", backend, err)}
				}
				var coord *dist.Coordinator
				if backend != "inprocess" {
					handlers := make([]transport.Handler, shards)
					for i := range handlers {
						handlers[i] = dist.NewShard(i, queries)
					}
					var tr transport.Transport
					if backend == "loopback" {
						tr = transport.NewLoopback(handlers...)
					} else {
						tr = transport.NewPipe(5*time.Second, handlers...)
					}
					coord, err = dist.NewCoordinator(tr, cfg.BatchInterval, queries)
					if err != nil {
						tr.Close()
						return []string{fmt.Sprintf("pipeline %s coordinator: %v", backend, err)}
					}
					defer coord.Close()
					eng.SetExecutor(coord)
				}
				reports, err := eng.RunBatches(replayStream{batches: batches}, len(batches))
				if err != nil {
					return []string{fmt.Sprintf("pipeline %s depth-%d run failed: %v", backend, depth, err)}
				}
				var violations []string
				if !reflect.DeepEqual(reports, refReports) {
					violations = append(violations, fmt.Sprintf(
						"invariant 9 (pipeline equivalence): scheme %s reports diverged at depth %d (%s)",
						sc.Scheme, depth, backend))
				}
				if snap := eng.WindowSnapshot(); !reflect.DeepEqual(snap, refWindow) {
					violations = append(violations, fmt.Sprintf(
						"invariant 9 (pipeline equivalence): scheme %s window answer diverged at depth %d (%s)",
						sc.Scheme, depth, backend))
				}
				if coord != nil {
					if down := coord.Down(); down != 0 {
						violations = append(violations, fmt.Sprintf(
							"invariant 9 (pipeline equivalence): %d shard(s) marked down at depth %d (%s)",
							down, depth, backend))
					}
				}
				return violations
			}()
			if len(violations) > 0 {
				return violations
			}
		}
	}
	return nil
}

// checkMigrationEquivalence is invariant 8: a run whose key-range owner
// count changes mid-stream — the scripted ScaleEvents, applied after
// their batch commits so the state handoff happens at the next batch
// boundary — must produce the same window answer after every batch and
// bit-identical reports vs. the static in-process run. The elastic arm
// runs three ways: in-process, and scattered over loopback and pipe
// shard clusters (where handoff images additionally travel the wire to
// the recipient shards). The clock is frozen by Run, so "bit-identical"
// includes every timing field.
func checkMigrationEquivalence(sc Scenario, batches [][]tuple.Tuple) []string {
	if len(sc.ScaleEvents) == 0 {
		return nil
	}
	scheme, err := core.ByName(sc.Scheme)
	if err != nil {
		return []string{err.Error()}
	}
	refSnaps, refReports, _, err := snapshotsOf(sc, scheme, 0, batches)
	if err != nil {
		return []string{fmt.Sprintf("migration reference failed: %v", err)}
	}
	rescaleAt := make(map[int]int, len(sc.ScaleEvents))
	for _, ev := range sc.ScaleEvents {
		rescaleAt[ev.AtBatch] = ev.Owners // later events at the same batch win
	}
	queries := []engine.Query{query(sc)}
	shards := 2 + int(sc.Seed%2) // match the transport invariant's topology
	for _, backend := range []string{"inprocess", "loopback", "pipe"} {
		violations := func() []string {
			cfg := scheme.Apply(baseConfig(sc.Workers))
			eng, err := engine.New(cfg, queries[0])
			if err != nil {
				return []string{fmt.Sprintf("migration %s engine: %v", backend, err)}
			}
			if backend != "inprocess" {
				handlers := make([]transport.Handler, shards)
				for i := range handlers {
					handlers[i] = dist.NewShard(i, queries)
				}
				var tr transport.Transport
				if backend == "loopback" {
					tr = transport.NewLoopback(handlers...)
				} else {
					tr = transport.NewPipe(5*time.Second, handlers...)
				}
				coord, err := dist.NewCoordinator(tr, cfg.BatchInterval, queries)
				if err != nil {
					tr.Close()
					return []string{fmt.Sprintf("migration %s coordinator: %v", backend, err)}
				}
				defer coord.Close()
				eng.SetExecutor(coord)
			}
			var violations []string
			err = stepAll(eng, batches, func(i int) error {
				if snap := eng.WindowSnapshot(); !reflect.DeepEqual(snap, refSnaps[i]) {
					violations = append(violations, fmt.Sprintf(
						"invariant 8 (migration equivalence): scheme %s batch %d window answer diverged under rescaling (%s)",
						sc.Scheme, i, backend))
				}
				if n, ok := rescaleAt[i]; ok {
					if err := eng.Rescale(n); err != nil {
						return fmt.Errorf("rescale to %d after batch %d: %w", n, i, err)
					}
				}
				return nil
			})
			if err != nil {
				violations = append(violations, fmt.Sprintf("migration %s run failed: %v", backend, err))
				return violations
			}
			if !reflect.DeepEqual(eng.Reports(), refReports) {
				violations = append(violations, fmt.Sprintf(
					"invariant 8 (migration equivalence): scheme %s reports diverged under rescaling (%s)",
					sc.Scheme, backend))
			}
			return violations
		}()
		if len(violations) > 0 {
			return violations
		}
	}
	return nil
}

// materialize pre-generates the scenario's batches so the differential
// invariants (scheme, fault, permutation) run over literally identical
// inputs.
func materialize(sc Scenario) ([][]tuple.Tuple, error) {
	src, err := newSource(sc)
	if err != nil {
		return nil, err
	}
	out := make([][]tuple.Tuple, sc.Batches)
	for i := range out {
		ts, err := src.Slice(tuple.Time(i)*tuple.Second, tuple.Time(i+1)*tuple.Second)
		if err != nil {
			return nil, err
		}
		out[i] = ts
	}
	return out, nil
}

// newSource builds the scenario's workload: unit-valued tuples (window
// sums stay integral, so float comparisons are exact) under the chosen
// skew.
func newSource(sc Scenario) (*workload.Source, error) {
	var (
		keys workload.KeySampler
		err  error
	)
	switch sc.Skew {
	case "zipf":
		keys, err = workload.NewZipfSampler("k", sc.Keys, 1.0)
	default:
		keys, err = workload.NewUniformSampler("k", sc.Keys)
	}
	if err != nil {
		return nil, err
	}
	return &workload.Source{
		Name: "check",
		Rate: workload.ConstantRate(sc.Rate),
		Keys: keys,
		Seed: sc.Seed,
	}, nil
}

// query builds the scenario's windowed query: counting with the
// invertible Sum, or — for NonInvertible scenarios — a Max reduce with no
// inverse, forcing the aggregator's recompute-on-evict path.
func query(sc Scenario) engine.Query {
	win := window.Sliding(tuple.Time(sc.WindowSec)*tuple.Second, tuple.Second)
	if sc.NonInvertible {
		return engine.Query{Name: "maxcount", Map: engine.CountMap, Reduce: window.Max, Window: win}
	}
	return engine.WordCount(win)
}

// baseConfig is the shared engine configuration; scheme and faults are
// layered on per invariant.
func baseConfig(workers int) engine.Config {
	return engine.Config{
		BatchInterval:   tuple.Second,
		MapTasks:        4,
		ReduceTasks:     4,
		Cores:           4,
		Workers:         workers,
		ValidateBatches: true,
	}
}

// stepAll drives the engine over the materialized batches, calling after
// once the batch committed.
func stepAll(eng *engine.Engine, batches [][]tuple.Tuple, after func(i int) error) error {
	for i, ts := range batches {
		start := tuple.Time(i) * tuple.Second
		if _, err := eng.Step(ts, start, start+tuple.Second); err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		if after != nil {
			if err := after(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// snapshotsOf runs one scheme over the batches and returns the window
// answer after every batch, verifying invariant 3 (incremental state ==
// Recompute) at each step.
func snapshotsOf(sc Scenario, scheme core.Scheme, workers int, batches [][]tuple.Tuple) ([]map[string]float64, []engine.BatchReport, []string, error) {
	eng, err := engine.New(scheme.Apply(baseConfig(workers)), query(sc))
	if err != nil {
		return nil, nil, nil, err
	}
	var violations []string
	snaps := make([]map[string]float64, 0, len(batches))
	err = stepAll(eng, batches, func(i int) error {
		snap := eng.WindowSnapshot()
		if rec := eng.Window().Recompute(); !reflect.DeepEqual(snap, rec) {
			violations = append(violations, fmt.Sprintf(
				"invariant 3 (incremental == recompute): scheme %s batch %d: incremental window has %d keys, recompute %d",
				scheme.Name, i, len(snap), len(rec)))
		}
		snaps = append(snaps, snap)
		return nil
	})
	return snaps, eng.Reports(), violations, err
}

// checkSchemeAndWindowInvariants covers invariants 1 and 3 plus worker
// independence: every registered scheme must produce the same window
// answer after every batch, each scheme's incremental window state must
// match recomputation, and the scenario's scheme must report identically
// at Workers 0 and the scenario's worker count.
func checkSchemeAndWindowInvariants(sc Scenario, batches [][]tuple.Tuple) []string {
	var violations []string
	var refName string
	var refSnaps []map[string]float64
	for _, scheme := range core.Schemes() {
		snaps, reports, vs, err := snapshotsOf(sc, scheme, 0, batches)
		violations = append(violations, vs...)
		if err != nil {
			violations = append(violations, fmt.Sprintf("scheme %s failed: %v", scheme.Name, err))
			continue
		}
		if refSnaps == nil {
			refName, refSnaps = scheme.Name, snaps
		} else {
			for i := range snaps {
				if !reflect.DeepEqual(snaps[i], refSnaps[i]) {
					violations = append(violations, fmt.Sprintf(
						"invariant 1 (scheme equivalence): scheme %s batch %d window answer differs from %s",
						scheme.Name, i, refName))
					break
				}
			}
		}
		if scheme.Name == sc.Scheme && sc.Workers != 0 {
			_, wreports, _, err := snapshotsOf(sc, scheme, sc.Workers, batches)
			if err != nil {
				violations = append(violations, fmt.Sprintf(
					"scheme %s at workers=%d failed: %v", scheme.Name, sc.Workers, err))
			} else if !reflect.DeepEqual(wreports, reports) {
				violations = append(violations, fmt.Sprintf(
					"invariant 1 (worker independence): scheme %s reports differ between workers=0 and workers=%d",
					scheme.Name, sc.Workers))
			}
		}
	}
	return violations
}

// checkFaultEquivalence is invariant 4: a run under the scenario's random
// fault plan must produce the same window answer after every batch as the
// fault-free run (recovery recomputes bit-identical outputs).
func checkFaultEquivalence(sc Scenario, batches [][]tuple.Tuple) []string {
	if sc.FaultEvents == 0 {
		return nil
	}
	scheme, err := core.ByName(sc.Scheme)
	if err != nil {
		return []string{err.Error()}
	}
	cleanSnaps, _, _, err := snapshotsOf(sc, scheme, 0, batches)
	if err != nil {
		return []string{fmt.Sprintf("fault-free reference failed: %v", err)}
	}
	cfg := scheme.Apply(baseConfig(0))
	cfg.Faults = fault.RandomPlan(sc.Seed, sc.Batches, sc.FaultEvents)
	eng, err := engine.New(cfg, query(sc))
	if err != nil {
		return []string{fmt.Sprintf("faulted engine: %v", err)}
	}
	var violations []string
	err = stepAll(eng, batches, func(i int) error {
		if snap := eng.WindowSnapshot(); !reflect.DeepEqual(snap, cleanSnaps[i]) {
			violations = append(violations, fmt.Sprintf(
				"invariant 4 (faulted == fault-free): scheme %s batch %d window answer diverged under plan %q",
				sc.Scheme, i, cfg.Faults.String()))
		}
		return nil
	})
	if err != nil {
		violations = append(violations, fmt.Sprintf("faulted run failed: %v", err))
	}
	return violations
}

// checkPermutationInvariance is invariant 5: shuffling the tuples inside
// each batch (batch membership unchanged) must not change any window
// answer.
func checkPermutationInvariance(sc Scenario, batches [][]tuple.Tuple) []string {
	scheme, err := core.ByName(sc.Scheme)
	if err != nil {
		return []string{err.Error()}
	}
	refSnaps, _, _, err := snapshotsOf(sc, scheme, 0, batches)
	if err != nil {
		return []string{fmt.Sprintf("permutation reference failed: %v", err)}
	}
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x5eed))
	shuffled := make([][]tuple.Tuple, len(batches))
	for i, ts := range batches {
		cp := append([]tuple.Tuple(nil), ts...)
		rng.Shuffle(len(cp), func(a, b int) { cp[a], cp[b] = cp[b], cp[a] })
		shuffled[i] = cp
	}
	eng, err := engine.New(scheme.Apply(baseConfig(0)), query(sc))
	if err != nil {
		return []string{fmt.Sprintf("permuted engine: %v", err)}
	}
	var violations []string
	err = stepAll(eng, shuffled, func(i int) error {
		if snap := eng.WindowSnapshot(); !reflect.DeepEqual(snap, refSnaps[i]) {
			violations = append(violations, fmt.Sprintf(
				"invariant 5 (permutation invariance): scheme %s batch %d window answer changed under tuple shuffle",
				sc.Scheme, i))
		}
		return nil
	})
	if err != nil {
		violations = append(violations, fmt.Sprintf("permuted run failed: %v", err))
	}
	return violations
}

// checkTransportEquivalence is invariant 6: running the scenario's
// scheme with the data-plane folds scattered over a shard cluster — via
// the deterministic Loopback backend and the goroutine-served Pipe
// backend — must produce the same window answer after every batch and
// bit-identical reports vs. the in-process run. The clock is frozen by
// Run, so "bit-identical" includes every timing field.
func checkTransportEquivalence(sc Scenario, batches [][]tuple.Tuple) []string {
	scheme, err := core.ByName(sc.Scheme)
	if err != nil {
		return []string{err.Error()}
	}
	refSnaps, refReports, _, err := snapshotsOf(sc, scheme, 0, batches)
	if err != nil {
		return []string{fmt.Sprintf("transport reference failed: %v", err)}
	}
	shards := 2 + int(sc.Seed%2) // 2 or 3, fixed per seed for replay
	queries := []engine.Query{query(sc)}
	for _, backend := range []string{"loopback", "pipe"} {
		violations := func() []string {
			handlers := make([]transport.Handler, shards)
			for i := range handlers {
				handlers[i] = dist.NewShard(i, queries)
			}
			var tr transport.Transport
			switch backend {
			case "loopback":
				tr = transport.NewLoopback(handlers...)
			default:
				tr = transport.NewPipe(5*time.Second, handlers...)
			}
			cfg := scheme.Apply(baseConfig(sc.Workers))
			eng, err := engine.New(cfg, queries[0])
			if err != nil {
				tr.Close()
				return []string{fmt.Sprintf("transport %s engine: %v", backend, err)}
			}
			coord, err := dist.NewCoordinator(tr, cfg.BatchInterval, queries)
			if err != nil {
				tr.Close()
				return []string{fmt.Sprintf("transport %s coordinator: %v", backend, err)}
			}
			defer coord.Close()
			eng.SetExecutor(coord)
			var violations []string
			err = stepAll(eng, batches, func(i int) error {
				if snap := eng.WindowSnapshot(); !reflect.DeepEqual(snap, refSnaps[i]) {
					violations = append(violations, fmt.Sprintf(
						"invariant 6 (transport equivalence): scheme %s batch %d window answer diverged over %s (%d shards)",
						sc.Scheme, i, backend, shards))
				}
				return nil
			})
			if err != nil {
				violations = append(violations, fmt.Sprintf("transport %s run failed: %v", backend, err))
				return violations
			}
			if down := coord.Down(); down != 0 {
				violations = append(violations, fmt.Sprintf(
					"invariant 6 (transport equivalence): %d shard(s) marked down over %s", down, backend))
			}
			if !reflect.DeepEqual(eng.Reports(), refReports) {
				violations = append(violations, fmt.Sprintf(
					"invariant 6 (transport equivalence): scheme %s reports diverged over %s (%d shards)",
					sc.Scheme, backend, shards))
			}
			return violations
		}()
		if len(violations) > 0 {
			return violations
		}
	}
	return nil
}

// ckptSide is one arm of the checkpoint invariant: an engine driving a
// jittered stream through a reorder buffer, optionally rate-limited by an
// AIMD throttle observed after every batch.
type ckptSide struct {
	eng *engine.Engine
	r   *engine.Reorderer
	src *workload.Jittered
	th  *backpressure.AIMD
}

// liveRate reads the side's current throttle factor at generation time,
// so a restored arm generates from the restored factor — exactly the
// coupling checkpoint amnesia used to break.
type liveRate struct {
	s    *ckptSide
	base float64
}

func (lr liveRate) RateAt(tuple.Time) float64 {
	if lr.s.th == nil {
		return lr.base
	}
	return lr.base * lr.s.th.Factor
}

func newCkptSide(sc Scenario) (*ckptSide, error) {
	s := &ckptSide{}
	inner, err := newSource(sc)
	if err != nil {
		return nil, err
	}
	inner.Rate = liveRate{s: s, base: sc.Rate}
	src, err := workload.NewJittered(inner, tuple.Time(sc.JitterMS)*tuple.Millisecond, sc.Seed+1)
	if err != nil {
		return nil, err
	}
	r, err := engine.NewReorderer(tuple.Time(sc.MaxDelayMS) * tuple.Millisecond)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(ckptConfig(sc), query(sc))
	if err != nil {
		return nil, err
	}
	if sc.Throttle {
		th := backpressure.NewAIMD()
		th.Observe(false) // start mid-backoff so the factor is live
		eng.AttachThrottle(th)
		s.th = th
	}
	s.eng, s.r, s.src = eng, r, src
	return s, nil
}

func ckptConfig(sc Scenario) engine.Config {
	scheme, err := core.ByName(sc.Scheme)
	if err != nil {
		// Unknown scheme names are caught by the other invariants; fall
		// back to prompt so this arm still runs.
		scheme = core.PromptScheme()
	}
	cfg := scheme.Apply(baseConfig(sc.Workers))
	if sc.FaultEvents > 0 {
		cfg.Faults = fault.RandomPlan(sc.Seed, sc.Batches, sc.FaultEvents)
	}
	// The approximate tier rides the checkpoint differential too, so the
	// restored summary is stressed under jitter, throttling, and faults
	// (its per-report bound and footprint compare bit for bit).
	cfg.Approx = approxSpec(sc)
	return cfg
}

// step runs one reordered batch, feeding the batch outcome back into the
// throttle (recovery-aware, like the integration loop).
func (s *ckptSide) step(sc Scenario) error {
	reps, err := s.eng.RunReordered(s.src, s.r, 1)
	if err != nil {
		return err
	}
	if s.th != nil {
		rep := reps[0]
		s.th.ObserveBatch(rep.Stable, int64(rep.ProcessingTime), int64(rep.RecoveryTime),
			int64(tuple.Second))
	}
	return nil
}

// checkCheckpointEquivalence is invariant 2, the full-stack differential:
// the scenario runs once uninterrupted and once with a checkpoint/restore
// at batch CheckpointAt — with the reorder buffer mid-flight and the
// throttle mid-backoff — and the two runs must agree on every BatchReport
// bit for bit, on the final window answer, and on the bytes of a
// checkpoint taken after the last batch: equal states write equal images.
func checkCheckpointEquivalence(sc Scenario) []string {
	ref, err := newCkptSide(sc)
	if err != nil {
		return []string{fmt.Sprintf("checkpoint reference setup failed: %v", err)}
	}
	for i := 0; i < sc.Batches; i++ {
		if err := ref.step(sc); err != nil {
			return []string{fmt.Sprintf("checkpoint reference run failed: %v", err)}
		}
	}

	arm, err := newCkptSide(sc)
	if err != nil {
		return []string{fmt.Sprintf("checkpoint arm setup failed: %v", err)}
	}
	for i := 0; i < sc.CheckpointAt; i++ {
		if err := arm.step(sc); err != nil {
			return []string{fmt.Sprintf("checkpoint arm run failed: %v", err)}
		}
	}
	var buf bytes.Buffer
	if err := arm.eng.Checkpoint(&buf); err != nil {
		return []string{fmt.Sprintf("checkpoint failed: %v", err)}
	}
	resumed, err := engine.Restore(ckptConfig(sc), []engine.Query{query(sc)}, &buf)
	if err != nil {
		return []string{fmt.Sprintf("restore failed: %v", err)}
	}
	var violations []string
	r2 := resumed.Reorderer()
	if r2 == nil {
		violations = append(violations,
			"invariant 2 (checkpoint/restore): restored engine lost its reorder buffer")
		r2 = arm.r // run on without it so the remaining comparisons still report
	}
	th2 := resumed.Throttle()
	if sc.Throttle && th2 == nil {
		violations = append(violations,
			"invariant 2 (checkpoint/restore): restored engine lost its throttle")
		th2 = arm.th
	}
	// Resume: same stream position (the source is outside the engine),
	// restored buffer and throttle.
	arm.eng, arm.r, arm.th = resumed, r2, th2
	for i := sc.CheckpointAt; i < sc.Batches; i++ {
		if err := arm.step(sc); err != nil {
			violations = append(violations, fmt.Sprintf("restored run failed at batch %d: %v", i, err))
			return violations
		}
	}
	refReports, armReports := ref.eng.Reports(), arm.eng.Reports()
	if len(armReports) != len(refReports) {
		violations = append(violations, fmt.Sprintf(
			"invariant 2 (checkpoint/restore): %d reports after restore, want %d",
			len(armReports), len(refReports)))
		return violations
	}
	for i := range refReports {
		if !reflect.DeepEqual(armReports[i], refReports[i]) {
			violations = append(violations, fmt.Sprintf(
				"invariant 2 (checkpoint/restore): report %d diverged (checkpoint at %d):\n  restored: %+v\n  uninterrupted: %+v",
				i, sc.CheckpointAt, armReports[i], refReports[i]))
			break
		}
	}
	if !reflect.DeepEqual(arm.eng.WindowSnapshot(), ref.eng.WindowSnapshot()) {
		violations = append(violations, fmt.Sprintf(
			"invariant 2 (checkpoint/restore): final window answer diverged (checkpoint at %d)", sc.CheckpointAt))
	}
	var refImg, armImg bytes.Buffer
	if err := ref.eng.Checkpoint(&refImg); err != nil {
		return append(violations, fmt.Sprintf("final reference checkpoint failed: %v", err))
	}
	if err := arm.eng.Checkpoint(&armImg); err != nil {
		return append(violations, fmt.Sprintf("final restored checkpoint failed: %v", err))
	}
	if !bytes.Equal(armImg.Bytes(), refImg.Bytes()) {
		violations = append(violations, fmt.Sprintf(
			"invariant 2 (checkpoint/restore): final checkpoints differ (%d vs %d bytes, checkpoint at %d)",
			armImg.Len(), refImg.Len(), sc.CheckpointAt))
	}
	return violations
}
