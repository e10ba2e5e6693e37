package engine

import (
	"fmt"

	"prompt/internal/intern"
	"prompt/internal/tuple"
	"prompt/internal/window"
)

// MapFn transforms one tuple into its contribution to the per-key
// aggregate: it returns the value to fold and whether to keep the tuple
// (false filters it out). The partitioning key is the tuple's key — the
// micro-batch model fixes the key at ingestion, which is what makes
// batch-time partitioning decisions valid for the Reduce stage.
type MapFn func(t tuple.Tuple) (float64, bool)

// IdentityMap keeps every tuple with its own value.
func IdentityMap(t tuple.Tuple) (float64, bool) { return t.Val, true }

// CountMap keeps every tuple with value 1 (WordCount-style queries).
func CountMap(tuple.Tuple) (float64, bool) { return 1, true }

// Query is a continuous streaming query compiled to the Map-Reduce
// execution graph of Figure 1: a per-tuple Map, a per-key Reduce, and a
// window over batch outputs with an optional inverse Reduce for
// incremental eviction.
type Query struct {
	// Name labels the query in reports.
	Name string
	// Map transforms/filters tuples; nil means IdentityMap.
	Map MapFn
	// Reduce folds mapped values per key; nil means window.Sum.
	Reduce window.ReduceFn
	// Inverse undoes Reduce for window eviction; nil forces recompute.
	Inverse window.ReduceFn
	// Window defines the query's time window over batch outputs. The zero
	// value means a tumbling window of one batch (per-batch output only).
	Window window.Spec
}

// WordCount returns the evaluation's WordCount query: a sliding count per
// word over the given window.
func WordCount(win window.Spec) Query {
	return Query{Name: "wordcount", Map: CountMap, Reduce: window.Sum, Inverse: window.SumInverse, Window: win}
}

// SumQuery returns a sliding per-key sum of tuple values (DEBS fare/
// distance totals, TPC-H quantity summaries).
func SumQuery(name string, win window.Spec) Query {
	return Query{Name: name, Map: IdentityMap, Reduce: window.Sum, Inverse: window.SumInverse, Window: win}
}

// Normalized fills nil functions with defaults, yielding the exact query
// the engine runs. Shard runtimes normalize their query copies the same
// way so both sides fold with identical functions.
func (q Query) Normalized() Query { return q.normalized() }

// normalized fills nil functions with defaults.
func (q Query) normalized() Query {
	if q.Map == nil {
		q.Map = IdentityMap
	}
	if q.Reduce == nil {
		q.Reduce = window.Sum
		if q.Inverse == nil {
			q.Inverse = window.SumInverse
		}
	}
	return q
}

// newAggregator builds the query's window aggregator over the stream's key
// dictionary; a zero window yields nil (per-batch output only).
func (q Query) newAggregator(batchInterval tuple.Time, dict *intern.Dict) (*window.Aggregator, error) {
	if q.Window == (window.Spec{}) {
		return nil, nil
	}
	if q.Window.Length < batchInterval {
		return nil, fmt.Errorf("engine: window length %v shorter than batch interval %v",
			q.Window.Length, batchInterval)
	}
	return window.NewAggregatorDict(q.Window, q.Reduce, q.Inverse, dict)
}
