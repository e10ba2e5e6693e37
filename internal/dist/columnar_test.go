package dist

import (
	"fmt"
	"reflect"
	"testing"

	"prompt/internal/core"
	"prompt/internal/engine"
	"prompt/internal/tuple"
	"prompt/internal/wire"
)

// runColumnEdge is runEngine through the engine's column edge: each
// interval's rows are transposed by the caller against the engine's
// dictionary and handed over with StepColumns, as the Receiver does.
func runColumnEdge(t *testing.T, cfg engine.Config, queries []engine.Query, coord *Coordinator, batches int, seed int64) runOut {
	t.Helper()
	eng, err := engine.NewMulti(cfg, queries)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetExecutor(coord)
	src := testSource(8000, 150, seed)
	reports := make([]engine.BatchReport, 0, batches)
	for i := 0; i < batches; i++ {
		start := eng.Now()
		end := start + eng.Config().BatchInterval
		rows, err := src.Slice(start, end)
		if err != nil {
			t.Fatal(err)
		}
		cb := &tuple.ColumnBatch{}
		if err := cb.Transpose(rows, eng.Dict()); err != nil {
			t.Fatal(err)
		}
		rep, err := eng.StepColumns(cb, start, end)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	results := make([]map[string]float64, len(queries))
	for i := range queries {
		results[i] = eng.LastResultOf(i)
	}
	return runOut{reports: reports, window: eng.WindowSnapshot(), results: results}
}

// TestColumnarClusterEquivalence feeds a cluster through the engine's
// column edge over every transport backend and checks bit-identity with
// the in-process row-edge reference. The blocks' key runs travel as
// MapTaskCols frames (delta-encoded columns) — the loopback backend
// exercises the in-process handoff and the net backend the real codec.
func TestColumnarClusterEquivalence(t *testing.T) {
	queries := testQueries()
	const batches, seed = 3, 42
	for _, workers := range []int{0, 4} {
		cfg := testConfig(core.PromptScheme(), workers)
		ref := runEngine(t, cfg, queries, nil, batches, seed)
		refReps := scrubWallClock(ref.reports)

		for _, backend := range []string{"loopback", "pipe", "net"} {
			t.Run(fmt.Sprintf("w%d/%s", workers, backend), func(t *testing.T) {
				tr := buildTransport(t, backend, newShards(2, queries))
				coord, err := NewCoordinator(tr, cfg.BatchInterval, queries)
				if err != nil {
					t.Fatal(err)
				}
				defer coord.Close()
				got := runColumnEdge(t, cfg, queries, coord, batches, seed)
				if !reflect.DeepEqual(scrubWallClock(got.reports), refReps) {
					t.Fatalf("column-edge cluster reports diverge from the in-process row edge\n got: %+v\nwant: %+v",
						scrubWallClock(got.reports), refReps)
				}
				if !reflect.DeepEqual(got.window, ref.window) {
					t.Fatal("column-edge cluster window diverges from the in-process row edge")
				}
				if !reflect.DeepEqual(got.results, ref.results) {
					t.Fatal("column-edge cluster per-query results diverge from the in-process row edge")
				}
			})
		}
	}
}

// TestShardRejectsRowMapTask pins that the row map frame is retired: the
// coordinator sends MapTaskCols only, and a shard answers a MapTask with
// an error instead of folding it.
func TestShardRejectsRowMapTask(t *testing.T) {
	s := NewShard(0, testQueries())
	if _, err := s.Handle(&wire.MapTask{Dict: wire.DictDelta{Keys: []string{}}}); err == nil {
		t.Fatal("shard folded a row MapTask frame")
	}
}
