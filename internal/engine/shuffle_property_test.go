package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"prompt/internal/cluster"
	"prompt/internal/intern"
	"prompt/internal/partition"
	"prompt/internal/reducer"
	"prompt/internal/tuple"
	"prompt/internal/workload"
)

// The oracle below is the string-keyed shuffle and fold the ID path
// replaced: Map clusters deduplicated through a per-block map, buckets of
// (key, value) contributions, each folded into a map, the batch output
// their union.

type refContrib struct {
	key string
	val float64
}

func refMapBlock(q Query, bl *tuple.Block) ([]tuple.Cluster, []float64) {
	var clusters []tuple.Cluster
	var values []float64
	idx := make(map[string]int)
	for k := range bl.Keys {
		ks := &bl.Keys[k]
		kept := 0
		var folded float64
		for i := 0; i < ks.Cols.Len(); i++ {
			v, keep := q.Map(ks.Cols.Tuple(ks.Key, i))
			if !keep {
				continue
			}
			if kept == 0 {
				folded = v
			} else {
				folded = q.Reduce(folded, v)
			}
			kept++
		}
		if kept == 0 {
			continue
		}
		if j, ok := idx[ks.Key]; ok {
			clusters[j].Size += kept
			values[j] = q.Reduce(values[j], folded)
			continue
		}
		idx[ks.Key] = len(clusters)
		clusters = append(clusters, tuple.Cluster{Key: ks.Key, Size: kept})
		values = append(values, folded)
	}
	return clusters, values
}

func refFoldBucket(q Query, contribs []refContrib) map[string]float64 {
	agg := make(map[string]float64)
	for _, c := range contribs {
		if cur, ok := agg[c.key]; ok {
			agg[c.key] = q.Reduce(cur, c.val)
		} else {
			agg[c.key] = c.val
		}
	}
	return agg
}

// shuffleShape is one seeded batch shape of the property test.
type shuffleShape struct {
	keys   int
	zipf   float64 // 0 draws uniformly
	tuples int
}

func (sh shuffleShape) batch(t *testing.T, seed int64, dict *intern.Dict) *tuple.ColumnBatch {
	t.Helper()
	var ks workload.KeySampler
	var err error
	if sh.zipf > 0 {
		ks, err = workload.NewZipfSampler("k", sh.keys, sh.zipf)
	} else {
		ks, err = workload.NewUniformSampler("k", sh.keys)
	}
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]tuple.Tuple, sh.tuples)
	for i := range rows {
		ts := tuple.Time(i)
		rows[i] = tuple.NewTuple(ts, ks.Next(rng, ts), rng.Float64()*10-3)
	}
	cb := &tuple.ColumnBatch{Start: 0, End: tuple.Time(sh.tuples)}
	if err := cb.AppendRows(rows, dict.Intern); err != nil {
		t.Fatal(err)
	}
	return cb
}

// TestShuffleByIDProperties checks the ID-keyed shuffle and Reduce fold
// against the string-keyed oracle, for every partitioner's blocks under
// both bucket assigners, on seeded shapes, with a non-commutative Reduce
// (2a+b) so any reordering of a key's contributions shows in its value:
//   - one ID maps to one bucket;
//   - per-(bucket, key) contribution order is the oracle's;
//   - every Map cluster is delivered exactly once;
//   - the batch output equals the oracle's bit for bit,
//
// inline and with the bucket folds sharing one Positions table across
// four workers.
func TestShuffleByIDProperties(t *testing.T) {
	q := Query{Name: "2a+b", Map: IdentityMap, Reduce: func(a, b float64) float64 { return 2*a + b }}
	shapes := []shuffleShape{
		{keys: 2_000, zipf: 1.0, tuples: 4_000},
		{keys: 20_000, tuples: 3_000},
		{keys: 300, zipf: 0.8, tuples: 5_000},
	}
	const p, r = 8, 6
	pools := map[string]*cluster.WorkerPool{"inline": nil, "workers4": cluster.NewWorkerPool(4)}
	for si, sh := range shapes {
		dict := intern.NewDict(0)
		// A few keys interned first keep the batch's IDs away from zero.
		for i := 0; i < 17*si; i++ {
			dict.Intern(fmt.Sprintf("pad%d", i))
		}
		cb := sh.batch(t, int64(100+si), dict)
		for _, name := range partition.Names() {
			blocks, err := partition.Registry()[name].Partition(partition.Input{Cols: cb, Dict: dict}, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, asg := range []reducer.Assigner{reducer.NewPrompt(), reducer.NewHash()} {
				for poolName, pool := range pools {
					id := fmt.Sprintf("shape%d/%s/%s/%s", si, name, asg.Name(), poolName)
					checkShuffleByID(t, id, q, dict, blocks, asg, r, pool)
				}
			}
		}
	}
}

func checkShuffleByID(t *testing.T, id string, q Query, dict *intern.Dict, blocks []*tuple.Block,
	asg reducer.Assigner, r int, pool *cluster.WorkerPool) {
	t.Helper()
	keys := dict.Strings()
	buckets := reducer.NewBucketSet(r)
	perBucket := make([][]Contrib, r)
	refBucket := make([][]refContrib, r)
	delivered := 0
	for _, bl := range blocks {
		clusters, values := MapBlock(q, bl)
		refClusters, refValues := refMapBlock(q, bl)
		if len(clusters) != len(refClusters) {
			t.Fatalf("%s: block %d: %d clusters, oracle %d", id, bl.ID, len(clusters), len(refClusters))
		}
		for ci, c := range clusters {
			rc := refClusters[ci]
			if keys[c.ID] != c.Key || c.Key != rc.Key || c.Size != rc.Size ||
				math.Float64bits(values[ci]) != math.Float64bits(refValues[ci]) {
				t.Fatalf("%s: block %d cluster %d: %+v=%v, oracle %+v=%v", id, bl.ID, ci, c, values[ci], rc, refValues[ci])
			}
		}
		if len(clusters) == 0 {
			continue
		}
		assign, err := asg.Assign(bl.ID, clusters, bl.Ref, r)
		if err != nil {
			t.Fatal(err)
		}
		for ci, b := range assign {
			if err := buckets.Place(clusters[ci], b); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			perBucket[b] = append(perBucket[b], Contrib{ID: clusters[ci].ID, Val: values[ci]})
			refBucket[b] = append(refBucket[b], refContrib{key: clusters[ci].Key, val: values[ci]})
			delivered++
		}
	}

	// One ID, one bucket; every cluster delivered once; per-(bucket, key)
	// order as the oracle's.
	home := make(map[uint32]int)
	total := 0
	for b := range perBucket {
		total += len(perBucket[b])
		if len(perBucket[b]) != len(refBucket[b]) {
			t.Fatalf("%s: bucket %d holds %d contributions, oracle %d", id, b, len(perBucket[b]), len(refBucket[b]))
		}
		for k, c := range perBucket[b] {
			if prev, ok := home[c.ID]; ok && prev != b {
				t.Fatalf("%s: key id %d in buckets %d and %d", id, c.ID, prev, b)
			}
			home[c.ID] = b
			rc := refBucket[b][k]
			if keys[c.ID] != rc.key || math.Float64bits(c.Val) != math.Float64bits(rc.val) {
				t.Fatalf("%s: bucket %d contribution %d is %s=%v, oracle %s=%v", id, b, k, keys[c.ID], c.Val, rc.key, rc.val)
			}
		}
	}
	if total != delivered || buckets.Keys() != len(home) {
		t.Fatalf("%s: %d contributions for %d clusters, %d keys placed for %d homed", id, total, delivered, buckets.Keys(), len(home))
	}

	partials := ReduceLocal(pool, q, dict, perBucket)
	want := make(map[string]float64)
	for b := range refBucket {
		for k, v := range refFoldBucket(q, refBucket[b]) {
			want[k] = v
		}
	}
	n := 0
	seen := make(map[uint32]bool)
	for b, res := range partials {
		n += len(res.IDs)
		for j, kid := range res.IDs {
			if seen[kid] || home[kid] != b {
				t.Fatalf("%s: key id %d emitted twice or outside its bucket %d", id, kid, b)
			}
			seen[kid] = true
			if w, ok := want[keys[kid]]; !ok || math.Float64bits(w) != math.Float64bits(res.Vals[j]) {
				t.Fatalf("%s: key %s folds to %v, oracle %v", id, keys[kid], res.Vals[j], w)
			}
		}
	}
	if n != len(want) {
		t.Fatalf("%s: %d keys out, oracle %d", id, n, len(want))
	}
}
