package stats

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"prompt/internal/intern"
	"prompt/internal/tuple"
)

// dictTestTuples builds a deterministic skewed tuple stream for interval
// [start, end): key k%03d appears with weight proportional to 1/(k+1).
func dictTestTuples(r *rand.Rand, n int, start, end tuple.Time) []tuple.Tuple {
	ts := make([]tuple.Tuple, n)
	span := int64(end - start)
	for i := range ts {
		k := r.Intn(50)
		if r.Intn(3) == 0 {
			k = r.Intn(5) // hot keys
		}
		ts[i] = tuple.Tuple{
			TS:  start + tuple.Time(r.Int63n(span)),
			Key: fmt.Sprintf("k%03d", k),
			Val: float64(i),
		}
	}
	return ts
}

// TestDictAccumulatorMatchesMapMode drives an accumulator over a shared
// dictionary and one over NewAccumulator's private dictionary through
// several batch intervals (exercising the reuse of the entry arena, the
// log and the row arena across Resets) and asserts their Finalize outputs
// are deeply identical every batch.
func TestDictAccumulatorMatchesMapMode(t *testing.T) {
	cfg := AccumulatorConfig{Budget: 4, EstimatedTuples: 2000, EstimatedKeys: 50}
	dict := intern.NewDict(0)
	da, err := NewAccumulatorDict(cfg, dict, 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	ma, err := NewAccumulator(cfg, 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for batch := 0; batch < 5; batch++ {
		start := tuple.Time(batch) * tuple.Second
		end := start + tuple.Second
		if batch > 0 {
			if err := da.Reset(cfg, start, end); err != nil {
				t.Fatal(err)
			}
			if err := ma.Reset(cfg, start, end); err != nil {
				t.Fatal(err)
			}
		}
		for _, tp := range dictTestTuples(r, 2000, start, end) {
			if err := da.Add(tp, tp.TS); err != nil {
				t.Fatal(err)
			}
			if err := ma.Add(tp, tp.TS); err != nil {
				t.Fatal(err)
			}
		}
		dKeys, dStats := da.Finalize()
		mKeys, mStats := ma.Finalize()
		if !reflect.DeepEqual(dStats, mStats) {
			t.Fatalf("batch %d: stats diverge: dict %+v map %+v", batch, dStats, mStats)
		}
		if !reflect.DeepEqual(dKeys, mKeys) {
			t.Fatalf("batch %d: sorted keys diverge (%d vs %d entries)",
				batch, len(dKeys), len(mKeys))
		}
	}
	if dict.Len() != 50 {
		t.Fatalf("dictionary holds %d keys, want 50", dict.Len())
	}
}

// TestDictAccumulatorSteadyStateReuse checks the memory contract: after
// the first batch established capacity, a repeat batch with the same key
// set must get Finalize's output in the same backing slice, with exact
// counts. TestAccumulatorSteadyStateZeroAlloc checks that the HTable,
// the arena and Finalize's sort scratch do not grow either.
func TestDictAccumulatorSteadyStateReuse(t *testing.T) {
	cfg := AccumulatorConfig{Budget: 4, EstimatedTuples: 1000, EstimatedKeys: 10}
	a, err := NewAccumulatorDict(cfg, intern.NewDict(0), 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(start tuple.Time) {
		for i := 0; i < 1000; i++ {
			tp := tuple.Tuple{
				TS:  start + tuple.Time(i)*(tuple.Second/1000),
				Key: fmt.Sprintf("k%d", i%10),
			}
			if err := a.Add(tp, tp.TS); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(0)
	first, _ := a.Finalize()
	firstPtr := &first[0]

	if err := a.Reset(cfg, tuple.Second, 2*tuple.Second); err != nil {
		t.Fatal(err)
	}
	feed(tuple.Second)
	second, _ := a.Finalize()
	if &second[0] != firstPtr {
		t.Error("Finalize output slice was reallocated in steady state")
	}
	if len(second) != 10 {
		t.Fatalf("got %d keys, want 10", len(second))
	}
	for i := range second {
		if second[i].Count != 100 {
			t.Fatalf("key %s count %d, want 100", second[i].Key, second[i].Count)
		}
	}
}
