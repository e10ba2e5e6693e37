package stats

import (
	"fmt"
	"math/rand"
	"testing"

	"prompt/internal/cluster"
	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// newShardedOver returns a sharded accumulator over dict for [start, end).
func newShardedOver(t *testing.T, dict *intern.Dict, shards int, start, end tuple.Time) *ShardedAccumulator {
	t.Helper()
	sa, err := NewShardedDict(DefaultAccumulatorConfig(), dict, shards, start, end)
	if err != nil {
		t.Fatal(err)
	}
	return sa
}

// addRows transposes rows over dict and folds them into sa.
func addRows(t *testing.T, sa *ShardedAccumulator, dict *intern.Dict, start, end tuple.Time, rows []tuple.Tuple, pool *cluster.WorkerPool) {
	t.Helper()
	cb := &tuple.ColumnBatch{Start: start, End: end}
	if err := cb.AppendRows(rows, dict.Intern); err != nil {
		t.Fatal(err)
	}
	if err := sa.AddAllColumns(cb, pool); err != nil {
		t.Fatal(err)
	}
}

// shardedTestBatch builds a skewed batch with a deterministic seed.
func shardedTestBatch(n, keys int, seed int64) []tuple.Tuple {
	rng := rand.New(rand.NewSource(seed))
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		k := fmt.Sprintf("k%d", rng.Intn(keys)*rng.Intn(keys)/keys)
		ts[i] = tuple.NewTuple(tuple.Time(i), k, 1)
	}
	return ts
}

func TestShardedAccumulatorExactCounts(t *testing.T) {
	tuples := shardedTestBatch(20000, 300, 11)
	want := map[string]int{}
	for _, tp := range tuples {
		want[tp.Key]++
	}
	for _, shards := range []int{1, 2, 4, 7} {
		dict := intern.NewDict(0)
		sa := newShardedOver(t, dict, shards, 0, tuple.Second)
		addRows(t, sa, dict, 0, tuple.Second, tuples, cluster.NewWorkerPool(4))
		sorted, st := sa.Finalize(cluster.NewWorkerPool(4))
		if st.Tuples != len(tuples) || st.Keys != len(want) {
			t.Fatalf("shards=%d: stats %d tuples %d keys, want %d/%d", shards, st.Tuples, st.Keys, len(tuples), len(want))
		}
		if len(sorted) != len(want) {
			t.Fatalf("shards=%d: %d sorted keys, want %d", shards, len(sorted), len(want))
		}
		buffered := 0
		for i, sk := range sorted {
			if sk.Count != want[sk.Key] {
				t.Fatalf("shards=%d: key %s count %d, want %d", shards, sk.Key, sk.Count, want[sk.Key])
			}
			if sk.Cols.Len() != sk.Count {
				t.Fatalf("shards=%d: key %s buffered %d tuples, count %d", shards, sk.Key, sk.Cols.Len(), sk.Count)
			}
			buffered += sk.Cols.Len()
			if i > 0 && sorted[i-1].Count < sk.Count {
				t.Fatalf("shards=%d: merge not sorted at %d", shards, i)
			}
		}
		if buffered != len(tuples) {
			t.Fatalf("shards=%d: buffered %d tuples, want %d", shards, buffered, len(tuples))
		}
	}
}

func TestShardedAccumulatorWorkerCountInvariance(t *testing.T) {
	// The sharded output must depend only on the shard count, never on how
	// many worker goroutines execute the shards — this is the invariant
	// that keeps BatchReports identical across Workers settings.
	tuples := shardedTestBatch(10000, 200, 5)
	var ref []SortedKey
	for _, workers := range []int{1, 2, 8} {
		dict := intern.NewDict(0)
		sa := newShardedOver(t, dict, 4, 0, tuple.Second)
		var pool *cluster.WorkerPool
		if workers > 1 {
			pool = cluster.NewWorkerPool(workers)
		}
		addRows(t, sa, dict, 0, tuple.Second, tuples, pool)
		sorted, _ := sa.Finalize(pool)
		if ref == nil {
			ref = sorted
			continue
		}
		if len(sorted) != len(ref) {
			t.Fatalf("workers=%d: %d keys, want %d", workers, len(sorted), len(ref))
		}
		for i := range ref {
			if sorted[i].Key != ref[i].Key || sorted[i].Count != ref[i].Count {
				t.Fatalf("workers=%d: slot %d = %s/%d, want %s/%d",
					workers, i, sorted[i].Key, sorted[i].Count, ref[i].Key, ref[i].Count)
			}
		}
	}
}

func TestShardedAccumulatorReset(t *testing.T) {
	dict := intern.NewDict(0)
	sa := newShardedOver(t, dict, 3, 0, tuple.Second)
	addRows(t, sa, dict, 0, tuple.Second, shardedTestBatch(5000, 100, 1), nil)
	sa.Finalize(nil)
	if err := sa.Reset(DefaultAccumulatorConfig(), tuple.Second, 2*tuple.Second); err != nil {
		t.Fatal(err)
	}
	second := make([]tuple.Tuple, 0, 100)
	for i := 0; i < 100; i++ {
		second = append(second, tuple.NewTuple(tuple.Second+tuple.Time(i), "x", 1))
	}
	addRows(t, sa, dict, tuple.Second, 2*tuple.Second, second, nil)
	sorted, st := sa.Finalize(nil)
	if st.Tuples != 100 || len(sorted) != 1 || sorted[0].Count != 100 {
		t.Fatalf("post-reset finalize: %d tuples, %d keys: %+v", st.Tuples, len(sorted), sorted)
	}
}

func TestNewShardedRejectsBadShardCount(t *testing.T) {
	if _, err := NewShardedDict(DefaultAccumulatorConfig(), intern.NewDict(0), 0, 0, tuple.Second); err == nil {
		t.Fatal("accepted 0 shards")
	}
}
