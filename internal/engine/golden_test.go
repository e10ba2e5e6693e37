package engine

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"prompt/internal/metrics"
	"prompt/internal/partition"
	"prompt/internal/reducer"
	"prompt/internal/stats"
	"prompt/internal/tuple"
	"prompt/internal/window"
)

// freezeClock pins the pipeline's wall clock for the duration of a test,
// so the measured partitioning cost is exactly zero and every BatchReport
// field becomes deterministic — bit-identical comparison needs no
// wall-clock scrubbing.
func freezeClock(t *testing.T) {
	t.Helper()
	orig := timeNow
	fixed := time.Unix(1_700_000_000, 0)
	timeNow = func() time.Time { return fixed }
	t.Cleanup(func() { timeNow = orig })
}

// legacyStep is a faithful transcription of the seed's monolithic
// Engine.Step (the ~165-line pre-pipeline driver), kept as the golden
// reference for the staged pipeline. It mutates the engine exactly as the
// seed did; only the clock is routed through timeNow so tests can freeze
// it.
func legacyStep(e *Engine, tuples []tuple.Tuple, start, end tuple.Time) (BatchReport, error) {
	if end <= start {
		return BatchReport{}, fmt.Errorf("engine: empty batch interval [%v,%v)", start, end)
	}
	if start != e.now {
		return BatchReport{}, fmt.Errorf("engine: non-consecutive batch start %v, expected %v", start, e.now)
	}
	interval := end - start
	batch := &tuple.Batch{Start: start, End: end, Tuples: tuples}
	// Key IDs from Map output to the window cell are the engine
	// dictionary's, so every batching-phase structure interns there.
	cols := &tuple.ColumnBatch{Start: start, End: end}
	if err := cols.Transpose(tuples, e.dict); err != nil {
		return BatchReport{}, err
	}

	// Batching phase: accumulate statistics (Algorithm 1) or buffer
	// blindly, then partition (Algorithm 2 or a baseline).
	var sorted []stats.SortedKey
	var batchStats stats.BatchStats
	wallStart := timeNow()
	switch e.cfg.Accum {
	case FrequencyAware:
		if err := legacyFeedAccumulator(e, batch); err != nil {
			return BatchReport{}, err
		}
		wallStart = timeNow()
		sorted, batchStats = e.acc.Finalize()
	case PostSortMode:
		sorted = stats.NewPostSorter(e.dict).Sort(cols)
		batchStats = stats.BatchStats{Tuples: batch.Len(), Keys: len(sorted), Start: start, End: end}
	default:
		return BatchReport{}, fmt.Errorf("engine: unknown accumulation mode %v", e.cfg.Accum)
	}

	blocks, err := e.cfg.Partitioner.Partition(partition.Input{Cols: cols, Dict: e.dict, Sorted: sorted, Pool: e.pool}, e.cfg.MapTasks)
	if err != nil {
		return BatchReport{}, fmt.Errorf("engine: partitioning batch %d: %w", e.batchIdx, err)
	}
	partTime := tuple.FromDuration(timeNow().Sub(wallStart))

	parted := &tuple.Partitioned{Batch: batch, Blocks: blocks, PartitionTime: partTime}
	if e.cfg.ValidateBatches {
		if err := parted.Validate(); err != nil {
			return BatchReport{}, fmt.Errorf("engine: batch %d: %w", e.batchIdx, err)
		}
	}

	slack := tuple.Time(float64(interval) * e.cfg.EarlyReleaseFraction)
	overflow := partTime - slack
	if overflow < 0 {
		overflow = 0
	}

	// Processing phase: one Map-Reduce job per query.
	for _, bl := range blocks {
		bl.Cardinality()
	}
	seqBase := e.taskSeq
	perQuery := len(blocks) + e.cfg.ReduceTasks
	runs := make([]queryRun, len(e.queries))
	qerrs := make([]error, len(e.queries))
	spec := jobSpec{batch: e.batchIdx, mapCores: e.cfg.Cores, reduceCores: e.cfg.Cores}
	e.pool.Do(len(e.queries), func(qi int) {
		runs[qi], qerrs[qi] = e.runQuery(qi, blocks, seqBase+qi*perQuery, spec)
	})
	e.taskSeq = seqBase + len(e.queries)*perQuery
	for qi, qerr := range qerrs {
		if qerr != nil {
			return BatchReport{}, fmt.Errorf("engine: batch %d query %d: %w", e.batchIdx, qi, qerr)
		}
	}

	aggErrs := make([]error, len(e.queries))
	e.pool.Do(len(e.queries), func(qi int) {
		res := &runs[qi].result
		e.lastResults[qi] = res
		if e.aggs[qi] != nil {
			aggErrs[qi] = e.aggs[qi].AddColumns(end, res.IDs, res.Vals)
		}
	})
	for _, aggErr := range aggErrs {
		if aggErr != nil {
			return BatchReport{}, aggErr
		}
	}

	var processing tuple.Time = overflow
	for qi := range runs {
		processing += runs[qi].mapMakespan + runs[qi].reduceMakespan
	}
	primary := runs[0]

	// Timing, queueing, stability.
	readyAt := end
	startProc := readyAt
	if e.procFree > startProc {
		startProc = e.procFree
	}
	finish := startProc + processing
	e.procFree = finish

	rep := BatchReport{
		Index:             e.batchIdx,
		Start:             start,
		End:               end,
		Tuples:            batchStats.Tuples,
		Keys:              batchStats.Keys,
		MapTasks:          e.cfg.MapTasks,
		ReduceTasks:       e.cfg.ReduceTasks,
		Cores:             e.cfg.Cores,
		Quality:           metrics.EvaluateWithKeys(blocks, e.cfg.MPIWeights, batchStats.Keys),
		BucketSizes:       primary.sizes,
		BucketBSI:         metrics.BSISizes(primary.sizes),
		PartitionTime:     partTime,
		PartitionOverflow: overflow,
		MapStageTime:      primary.mapMakespan,
		ReduceStageTime:   primary.reduceMakespan,
		ReduceTaskTimes:   primary.reduceDurations,
		ProcessingTime:    processing,
		QueueWait:         startProc - readyAt,
		Latency:           finish - start,
		W:                 float64(processing) / float64(interval),
		Stable:            finish <= end+interval,
	}
	e.reports = append(e.reports, rep)
	e.batchIdx++
	e.now = end
	return rep, nil
}

// legacyFeedAccumulator is the seed's feedAccumulator.
func legacyFeedAccumulator(e *Engine, batch *tuple.Batch) error {
	cfg := e.cfg.AccumConfig
	if last := len(e.reports) - 1; last >= 0 {
		if n := e.reports[last].Tuples; n > 0 {
			cfg.EstimatedTuples = n
		}
		if k := e.reports[last].Keys; k > 0 {
			cfg.EstimatedKeys = k
		}
	}
	if e.acc == nil {
		acc, err := stats.NewAccumulatorDict(cfg, e.dict, batch.Start, batch.End)
		if err != nil {
			return err
		}
		e.acc = acc
	} else if err := e.acc.Reset(cfg, batch.Start, batch.End); err != nil {
		return err
	}
	for i := range batch.Tuples {
		if err := e.acc.Add(batch.Tuples[i], batch.Tuples[i].TS); err != nil {
			return err
		}
	}
	return nil
}

// goldenScheme is one scheme configuration of the equivalence sweep. The
// set mirrors the core registry without importing it (core depends on
// engine): every registered partitioner as a post-sort baseline, plus the
// full Prompt design and its post-sort ablation.
type goldenScheme struct {
	name   string
	config func(Config) Config
}

func goldenSchemes() []goldenScheme {
	var out []goldenScheme
	for _, name := range partition.Names() {
		name := name
		if name == "prompt" {
			continue
		}
		out = append(out, goldenScheme{
			name: name,
			config: func(cfg Config) Config {
				cfg.Partitioner = partition.Registry()[name]
				cfg.Assigner = reducer.NewHash()
				cfg.Accum = PostSortMode
				return cfg
			},
		})
	}
	promptCfg := func(cfg Config) Config {
		cfg.Partitioner = partition.NewPrompt()
		cfg.Assigner = reducer.NewPrompt()
		cfg.Accum = FrequencyAware
		return cfg
	}
	out = append(out,
		goldenScheme{name: "prompt", config: promptCfg},
		goldenScheme{name: "prompt-postsort", config: func(cfg Config) Config {
			cfg = promptCfg(cfg)
			cfg.Accum = PostSortMode
			return cfg
		}},
	)
	return out
}

// runGolden drives n batches through either the legacy monolithic step or
// the staged pipeline and returns the reports plus the window answer.
func runGolden(t *testing.T, gs goldenScheme, workers, n int, legacy bool) ([]BatchReport, map[string]float64) {
	t.Helper()
	cfg := testConfig()
	cfg.Workers = workers
	cfg = gs.config(cfg)
	eng, err := New(cfg, WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(10000, 120, 77)
	for i := 0; i < n; i++ {
		start := eng.Now()
		end := start + eng.Config().BatchInterval
		tuples, err := src.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		if legacy {
			_, err = legacyStep(eng, tuples, start, end)
		} else {
			_, err = eng.Step(tuples, start, end)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return eng.Reports(), eng.WindowSnapshot()
}

// TestGoldenPipelineEquivalence runs every scheme at Workers 0 and 4
// through the seed-shaped driver path and the staged pipeline and asserts
// byte-identical BatchReport slices (and window answers). The frozen
// clock makes the measured partitioning cost exactly zero on both paths,
// so the comparison covers every report field with no scrubbing.
//
// The legacy helpers above feed rows one at a time through
// Accumulator.Add over a private dictionary and hand the partitioners the
// row batch, while the staged engine transposes once and runs the column
// fold over its own dictionary, so this sweep doubles as the row-edge
// equivalence check: for every registered scheme the two must produce
// identical reports and window answers.
func TestGoldenPipelineEquivalence(t *testing.T) {
	freezeClock(t)
	const batches = 3
	for _, gs := range goldenSchemes() {
		for _, workers := range []int{0, 4} {
			legacyReps, legacyWin := runGolden(t, gs, workers, batches, true)
			stagedReps, stagedWin := runGolden(t, gs, workers, batches, false)
			if !reflect.DeepEqual(stagedReps, legacyReps) {
				t.Errorf("scheme %s workers %d: staged pipeline reports diverge from legacy step\n got: %+v\nwant: %+v",
					gs.name, workers, stagedReps, legacyReps)
			}
			if !reflect.DeepEqual(stagedWin, legacyWin) {
				t.Errorf("scheme %s workers %d: window answers diverge", gs.name, workers)
			}
		}
	}
}

// TestGoldenLegacyReportsAreExercised guards the golden reference itself:
// under the frozen clock the reports must still carry nonzero simulated
// stage times, or the equivalence test would be comparing empty shells.
func TestGoldenLegacyReportsAreExercised(t *testing.T) {
	freezeClock(t)
	reps, _ := runGolden(t, goldenScheme{name: "prompt", config: func(cfg Config) Config {
		cfg.Partitioner = partition.NewPrompt()
		cfg.Assigner = reducer.NewPrompt()
		cfg.Accum = FrequencyAware
		return cfg
	}}, 0, 2, true)
	for _, r := range reps {
		if r.Tuples == 0 || r.ProcessingTime == 0 || r.MapStageTime == 0 {
			t.Fatalf("golden reference produced a degenerate report: %+v", r)
		}
		if r.PartitionTime != 0 {
			t.Fatalf("frozen clock leaked measured time into the report: %+v", r)
		}
	}
}
