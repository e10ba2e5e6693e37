package window_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"prompt/internal/intern"
	"prompt/internal/migrate"
	"prompt/internal/tuple"
	"prompt/internal/window"
)

// model is the string-keyed window the slot-partitioned Aggregator
// replaced, kept as the oracle: one result map per retained batch, a state
// map and a contribution count, a predicate scan to take a slot out, a
// rebuild-by-folding to put it back, and a full sort for TopK.
type model struct {
	length  tuple.Time
	reduce  window.ReduceFn
	inverse window.ReduceFn
	ends    []tuple.Time
	results []map[string]float64
	state   map[string]float64
	contrib map[string]int
}

func newModel(length tuple.Time, reduce, inverse window.ReduceFn) *model {
	return &model{length: length, reduce: reduce, inverse: inverse,
		state: map[string]float64{}, contrib: map[string]int{}}
}

func (m *model) fold(k string, v float64) {
	if cur, ok := m.state[k]; ok {
		m.state[k] = m.reduce(cur, v)
	} else {
		m.state[k] = v
	}
	m.contrib[k]++
}

func (m *model) addBatch(end tuple.Time, result map[string]float64) {
	cp := make(map[string]float64, len(result))
	for k, v := range result {
		cp[k] = v
		m.fold(k, v)
	}
	m.ends, m.results = append(m.ends, end), append(m.results, cp)
	i := 0
	for i < len(m.ends) && m.ends[i] <= end-m.length {
		i++
	}
	expired := m.results[:i]
	m.ends, m.results = m.ends[i:], m.results[i:]
	if i == 0 {
		return
	}
	if m.inverse != nil {
		for _, r := range expired {
			for k, v := range r {
				m.state[k] = m.inverse(m.state[k], v)
				if m.contrib[k]--; m.contrib[k] == 0 {
					delete(m.state, k)
					delete(m.contrib, k)
				}
			}
		}
		return
	}
	clear(m.state)
	clear(m.contrib)
	for _, r := range m.results {
		for k, v := range r {
			m.fold(k, v)
		}
	}
}

// extract removes the slot's keys and returns their per-batch
// contributions.
func (m *model) extract(slot int) []map[string]float64 {
	out := make([]map[string]float64, len(m.results))
	for i, r := range m.results {
		out[i] = map[string]float64{}
		for k, v := range r {
			if intern.SlotOf(k) == slot {
				out[i][k] = v
				delete(r, k)
			}
		}
	}
	for k := range m.state {
		if intern.SlotOf(k) == slot {
			delete(m.state, k)
			delete(m.contrib, k)
		}
	}
	return out
}

// apply reinserts extracted contributions; extract deleted the keys'
// state, so folding the retained batches in order rebuilds it.
func (m *model) apply(taken []map[string]float64) {
	moved := map[string]bool{}
	for i, t := range taken {
		for k, v := range t {
			m.results[i][k] = v
			moved[k] = true
		}
	}
	for _, r := range m.results {
		for k, v := range r {
			if moved[k] {
				m.fold(k, v)
			}
		}
	}
}

func (m *model) recompute() map[string]float64 {
	out := map[string]float64{}
	for _, r := range m.results {
		for k, v := range r {
			if cur, ok := out[k]; ok {
				out[k] = m.reduce(cur, v)
			} else {
				out[k] = v
			}
		}
	}
	return out
}

// rank is the full-sort TopK: value descending, NaN last, key ascending.
func rank(state map[string]float64, k int) []window.Entry {
	entries := make([]window.Entry, 0, len(state))
	for key, v := range state {
		entries = append(entries, window.Entry{Key: key, Val: v})
	}
	slices.SortFunc(entries, func(a, b window.Entry) int {
		an, bn := math.IsNaN(a.Val), math.IsNaN(b.Val)
		switch {
		case an && !bn:
			return 1
		case bn && !an:
			return -1
		case !an && !bn && a.Val != b.Val:
			return cmp.Compare(b.Val, a.Val)
		}
		return strings.Compare(a.Key, b.Key)
	})
	if k < 0 {
		k = 0
	}
	return entries[:min(k, len(entries))]
}

// sameEntries compares rankings treating NaN values as equal.
func sameEntries(a, b []window.Entry) bool {
	return slices.EqualFunc(a, b, func(x, y window.Entry) bool {
		return x.Key == y.Key && (x.Val == y.Val || math.IsNaN(x.Val) && math.IsNaN(y.Val))
	})
}

// TestAggregatorMatchesModel drives seeded random sequences of AddBatch
// (with eviction, sometimes of many batches at once), slot detach and
// attach, slot hand-offs through the migrate codec, and a move of the whole
// window onto a fresh aggregator over a different dictionary — checking
// Snapshot, Value, Recompute and TopK against the string-keyed model after
// every step, on the inverse path (Sum) and the recompute path (Max).
func TestAggregatorMatchesModel(t *testing.T) {
	const slide = tuple.Second
	spec := window.Sliding(5*slide, slide)
	for _, tc := range []struct {
		name            string
		reduce, inverse window.ReduceFn
	}{
		{"sum-inverse", window.Sum, window.SumInverse},
		{"max-recompute", window.Max, nil},
	} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				dict := intern.NewDict(0)
				ag, err := window.NewAggregatorDict(spec, tc.reduce, tc.inverse, dict)
				if err != nil {
					t.Fatal(err)
				}
				ref := newModel(spec.Length, tc.reduce, tc.inverse)
				universe := 40 + rng.Intn(400)
				key := func() string { return fmt.Sprintf("key-%d", rng.Intn(universe)) }
				now := tuple.Time(0)

				check := func(step string) {
					t.Helper()
					if got := ag.Snapshot(); !reflect.DeepEqual(got, ref.state) {
						t.Fatalf("%s: Snapshot\n got  %v\n want %v", step, got, ref.state)
					}
					if got, want := ag.Recompute(), ref.recompute(); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Recompute\n got  %v\n want %v", step, got, want)
					}
					if got, want := ag.Batches(), len(ref.ends); got != want {
						t.Fatalf("%s: %d batches retained, want %d", step, got, want)
					}
					for i := 0; i < 5; i++ {
						k := key()
						gv, gok := ag.Value(k)
						wv, wok := ref.state[k]
						if gok != wok || gv != wv {
							t.Fatalf("%s: Value(%q) = %v,%v want %v,%v", step, k, gv, gok, wv, wok)
						}
					}
					k := rng.Intn(14) - 1
					if got, want := ag.TopK(k), rank(ref.state, k); !sameEntries(got, want) {
						t.Fatalf("%s: TopK(%d)\n got  %v\n want %v", step, k, got, want)
					}
				}

				for step := 0; step < 120; step++ {
					switch op := rng.Intn(10); {
					case op < 6: // a batch; one time in six the stream jumps ahead
						now += slide
						if rng.Intn(6) == 0 {
							now += tuple.Time(rng.Intn(6)) * slide
						}
						batch := map[string]float64{}
						for i, n := 0, rng.Intn(60); i < n; i++ {
							// Dyadic values: sums stay exact, so the inverse
							// path and a rebuild agree to the bit.
							batch[key()] = float64(rng.Intn(64)) / 8
						}
						if err := ag.AddBatch(now, batch); err != nil {
							t.Fatal(err)
						}
						ref.addBatch(now, batch)
						check(fmt.Sprintf("step %d: AddBatch(%v)", step, now))
					case op < 8: // take a slot out and put it back, in memory
						slot := rng.Intn(intern.Slots)
						st := ag.DetachSlot(slot)
						taken := ref.extract(slot)
						check(fmt.Sprintf("step %d: DetachSlot(%d)", step, slot))
						if err := ag.AttachSlot(slot, st); err != nil {
							t.Fatal(err)
						}
						ref.apply(taken)
						check(fmt.Sprintf("step %d: AttachSlot(%d)", step, slot))
					case op < 9: // hand a slot off through the codec
						slot := rng.Intn(intern.Slots)
						aggs := []*window.Aggregator{ag}
						img, err := migrate.Decode(migrate.Extract(slot, step, 0, 1, aggs, dict).Encode())
						if err != nil {
							t.Fatal(err)
						}
						taken := ref.extract(slot)
						check(fmt.Sprintf("step %d: Extract(%d)", step, slot))
						if err := migrate.Apply(img, aggs, dict); err != nil {
							t.Fatal(err)
						}
						ref.apply(taken)
						check(fmt.Sprintf("step %d: Apply(%d)", step, slot))
					default: // move the whole window to a fresh aggregator, fresh dictionary
						freshDict := intern.NewDict(0)
						freshDict.Intern("a key the donor never saw") // shifts every ID
						fresh, err := window.NewAggregatorDict(spec, tc.reduce, tc.inverse, freshDict)
						if err != nil {
							t.Fatal(err)
						}
						for _, end := range ref.ends {
							if err := fresh.AddBatch(end, nil); err != nil {
								t.Fatal(err)
							}
						}
						for slot := 0; slot < intern.Slots; slot++ {
							enc := migrate.Extract(slot, step, 0, 1, []*window.Aggregator{ag}, dict).Encode()
							img, err := migrate.Decode(enc)
							if err != nil {
								t.Fatal(err)
							}
							if err := migrate.Apply(img, []*window.Aggregator{fresh}, freshDict); err != nil {
								t.Fatal(err)
							}
						}
						if left := ag.Snapshot(); len(left) != 0 {
							t.Fatalf("step %d: donor still answers %v after every slot left", step, left)
						}
						ag, dict = fresh, freshDict
						check(fmt.Sprintf("step %d: moved to a fresh aggregator", step))
					}
				}
			})
		}
	}
}

// TestTopKHeapMatchesFullSort: the bounded heap returns exactly what
// sorting the whole answer and cutting it at k returns, for every k from
// below zero to past the key count, over answers dense with value ties,
// NaNs and infinities — where the total order (value descending, NaN last,
// key ascending) has to be the same in both.
func TestTopKHeapMatchesFullSort(t *testing.T) {
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1, 1, 1, 2, 2, 7, -3}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ag, err := window.NewAggregator(window.Tumbling(tuple.Second), window.Sum, window.SumInverse)
		if err != nil {
			t.Fatal(err)
		}
		state := map[string]float64{}
		for i, n := 0, 1+rng.Intn(80); i < n; i++ {
			state[fmt.Sprintf("k%03d", rng.Intn(200))] = values[rng.Intn(len(values))]
		}
		if err := ag.AddBatch(tuple.Second, state); err != nil {
			t.Fatal(err)
		}
		for k := -2; k <= len(state)+2; k++ {
			if got, want := ag.TopK(k), rank(state, k); !sameEntries(got, want) {
				t.Fatalf("seed %d: TopK(%d) over %v\n got  %v\n want %v", seed, k, state, got, want)
			}
		}
	}
}

// TestConcurrentReadsDuringWrites: readers share the aggregator with the
// one writer the engine gives it — batches arriving, slots leaving and
// returning — and must always see a consistent answer (run under -race in
// CI). Every batch adds 1 to each of the same keys over a two-batch window,
// so any answer a reader can legitimately see maps each key it lists to 1
// or 2.
func TestConcurrentReadsDuringWrites(t *testing.T) {
	ag, err := window.NewAggregator(window.Sliding(2*tuple.Second, tuple.Second), window.Sum, window.SumInverse)
	if err != nil {
		t.Fatal(err)
	}
	batch := map[string]float64{}
	for i := 0; i < 300; i++ {
		batch[fmt.Sprintf("key-%d", i)] = 1
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k, v := range ag.Snapshot() {
					if v != 1 && v != 2 {
						t.Errorf("Snapshot: %s = %v", k, v)
						return
					}
				}
				for _, e := range ag.TopK(5) {
					if e.Val != 1 && e.Val != 2 {
						t.Errorf("TopK: %+v", e)
						return
					}
				}
				if v, ok := ag.Value("key-7"); ok && v != 1 && v != 2 {
					t.Errorf("Value: %v", v)
					return
				}
				ag.Recompute()
			}
		}()
	}
	for b := 1; b <= 200; b++ {
		if err := ag.AddBatch(tuple.Time(b)*tuple.Second, batch); err != nil {
			t.Fatal(err)
		}
		slot := b % intern.Slots
		if err := ag.AttachSlot(slot, ag.DetachSlot(slot)); err != nil {
			t.Fatal(err)
		}
		ag.ExportSlot((slot + 1) % intern.Slots)
	}
	close(stop)
	wg.Wait()
}
