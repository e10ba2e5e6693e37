package stats

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"prompt/internal/tuple"
)

func defaultAcc(t *testing.T) *Accumulator {
	t.Helper()
	a, err := NewAccumulator(DefaultAccumulatorConfig(), 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAccumulatorRejectsBadConfig(t *testing.T) {
	if _, err := NewAccumulator(AccumulatorConfig{Budget: 0, EstimatedTuples: 1, EstimatedKeys: 1}, 0, tuple.Second); err == nil {
		t.Error("accepted zero budget")
	}
	if _, err := NewAccumulator(DefaultAccumulatorConfig(), tuple.Second, tuple.Second); err == nil {
		t.Error("accepted empty interval")
	}
}

// TestAccumulatorRejectsOutOfInterval checks that a row outside the batch
// interval is rejected, and that a column batch holding one is rejected
// whole: the rows before it are not folded, so the counts, the statistics
// and Finalize's output are those from before the call.
func TestAccumulatorRejectsOutOfInterval(t *testing.T) {
	a := defaultAcc(t)
	if err := a.Add(tuple.NewTuple(2*tuple.Second, "k", 1), 2*tuple.Second); err == nil {
		t.Error("accepted tuple outside the batch interval")
	}

	in := accShape{name: "late-row", keys: 500, zipf: 1.0, tuples: 4_000, batches: 1}.input()
	cb := in.batches[0]
	b, err := NewAccumulatorDict(DefaultAccumulatorConfig(), in.dict, cb.Start, cb.End)
	if err != nil {
		t.Fatal(err)
	}
	half := cb.Len() / 2
	if err := b.AddColumns(&tuple.ColumnBatch{Start: cb.Start, End: cb.End,
		IDs: cb.IDs[:half], TS: cb.TS[:half], Vals: cb.Vals[:half], W: cb.W[:half]}); err != nil {
		t.Fatal(err)
	}
	snapshot := func() (int, int, int, []byte) {
		out, st := b.Finalize()
		return b.Tuples(), b.Keys(), b.TreeUpdates(), appendDigest(nil, out, st)
	}
	tuples, keys, updates, digest := snapshot()

	late := &tuple.ColumnBatch{Start: cb.Start, End: cb.End}
	for i := half; i < cb.Len(); i++ {
		late.Append(cb.IDs[i], cb.TS[i], cb.Vals[i], cb.W[i])
	}
	late.TS[len(late.TS)-1] = cb.End // one late row, the last
	if err := b.AddColumns(late); err == nil {
		t.Fatal("accepted a column batch with a row outside the batch interval")
	}
	gotTuples, gotKeys, gotUpdates, gotDigest := snapshot()
	if gotTuples != tuples || gotKeys != keys || gotUpdates != updates {
		t.Errorf("after the rejected batch: tuples %d keys %d updates %d, before %d %d %d",
			gotTuples, gotKeys, gotUpdates, tuples, keys, updates)
	}
	if !bytes.Equal(gotDigest, digest) {
		t.Error("Finalize output changed across the rejected batch")
	}
}

func TestAccumulatorExactCounts(t *testing.T) {
	a := defaultAcc(t)
	rng := rand.New(rand.NewSource(7))
	want := map[string]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(50))
		ts := tuple.Time(int64(i) * int64(tuple.Second) / n)
		if err := a.Add(tuple.NewTuple(ts, k, 1), ts); err != nil {
			t.Fatal(err)
		}
		want[k]++
	}
	sorted, st := a.Finalize()
	if st.Tuples != n {
		t.Errorf("Tuples = %d, want %d", st.Tuples, n)
	}
	if st.Keys != len(want) {
		t.Errorf("Keys = %d, want %d", st.Keys, len(want))
	}
	if len(sorted) != len(want) {
		t.Fatalf("Finalize returned %d keys, want %d", len(sorted), len(want))
	}
	total := 0
	for _, sk := range sorted {
		if sk.Count != want[sk.Key] {
			t.Errorf("key %s count %d, want %d", sk.Key, sk.Count, want[sk.Key])
		}
		if sk.Cols.Len() != want[sk.Key] {
			t.Errorf("key %s has %d tuples, want %d", sk.Key, sk.Cols.Len(), want[sk.Key])
		}
		total += sk.Count
	}
	if total != n {
		t.Errorf("counts sum to %d, want %d", total, n)
	}
}

func TestAccumulatorQuasiSortedOutput(t *testing.T) {
	// Finalize orders by published frequencies, which lag the exact ones,
	// but with a skewed stream the heavy keys must surface near the front.
	// Measure rank displacement against the exact ordering.
	a := defaultAcc(t)
	rng := rand.New(rand.NewSource(11))
	const n = 20000
	for i := 0; i < n; i++ {
		// Zipf-ish skew via rejection: key j with prob ~ 1/(j+1).
		j := rng.Intn(100)
		for rng.Float64() > 1/float64(j+1) {
			j = rng.Intn(100)
		}
		ts := tuple.Time(int64(i) * int64(tuple.Second) / n)
		if err := a.Add(tuple.NewTuple(ts, fmt.Sprintf("k%d", j), 1), ts); err != nil {
			t.Fatal(err)
		}
	}
	sorted, _ := a.Finalize()
	// The heaviest key overall should be within the first few positions.
	maxCount, maxPos := 0, -1
	for i, sk := range sorted {
		if sk.Count > maxCount {
			maxCount, maxPos = sk.Count, i
		}
	}
	if maxPos > 3 {
		t.Errorf("heaviest key surfaced at position %d; published frequencies too stale", maxPos)
	}
	// Global quality: mean displacement between quasi-sorted positions
	// and exact positions should be small relative to the key count.
	exact := append([]SortedKey(nil), sorted...)
	SortKeysDesc(exact)
	pos := map[string]int{}
	for i, sk := range exact {
		pos[sk.Key] = i
	}
	disp := 0
	for i, sk := range sorted {
		d := i - pos[sk.Key]
		if d < 0 {
			d = -d
		}
		disp += d
	}
	if mean := float64(disp) / float64(len(sorted)); mean > float64(len(sorted))/4 {
		t.Errorf("mean rank displacement %.1f too large for %d keys", mean, len(sorted))
	}
}

func TestAccumulatorBudgetBoundsTreeUpdates(t *testing.T) {
	cfg := AccumulatorConfig{Budget: 4, EstimatedTuples: 10000, EstimatedKeys: 100}
	a, err := NewAccumulator(cfg, 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	for i := 0; i < n; i++ {
		ts := tuple.Time(int64(i) * int64(tuple.Second) / n)
		if err := a.Add(tuple.NewTuple(ts, fmt.Sprintf("k%d", i%100), 1), ts); err != nil {
			t.Fatal(err)
		}
	}
	_, st := a.Finalize()
	// Each key performs at most Budget updates beyond its insert.
	if limit := st.Keys * cfg.Budget; st.TreeUpdates > limit {
		t.Errorf("TreeUpdates = %d exceeds budget bound %d", st.TreeUpdates, limit)
	}
	if st.TreeUpdates == 0 {
		t.Error("no publications at all; f.step/t.step never fired")
	}
}

func TestAccumulatorReset(t *testing.T) {
	a := defaultAcc(t)
	ts := tuple.Time(0)
	if err := a.Add(tuple.NewTuple(ts, "k", 1), ts); err != nil {
		t.Fatal(err)
	}
	if err := a.Reset(DefaultAccumulatorConfig(), tuple.Second, 2*tuple.Second); err != nil {
		t.Fatal(err)
	}
	if a.Tuples() != 0 || a.Keys() != 0 {
		t.Errorf("after Reset: tuples=%d keys=%d", a.Tuples(), a.Keys())
	}
	start, end := a.Interval()
	if start != tuple.Second || end != 2*tuple.Second {
		t.Errorf("interval = [%v,%v)", start, end)
	}
	// Old-interval tuples now rejected.
	if err := a.Add(tuple.NewTuple(0, "k", 1), tuple.Second); err == nil {
		t.Error("accepted tuple from previous interval after Reset")
	}
}

func TestPostSortMatchesAccumulatorContent(t *testing.T) {
	b := &tuple.Batch{Start: 0, End: tuple.Second}
	rng := rand.New(rand.NewSource(3))
	const n = 3000
	for i := 0; i < n; i++ {
		b.Tuples = append(b.Tuples, tuple.NewTuple(
			tuple.Time(int64(i)*int64(tuple.Second)/n),
			fmt.Sprintf("k%d", rng.Intn(40)), 1))
	}
	ps, err := PostSort(b)
	if err != nil {
		t.Fatal(err)
	}
	// Exact descending order.
	for i := 1; i < len(ps); i++ {
		if ps[i-1].Count < ps[i].Count {
			t.Fatalf("PostSort not descending at %d", i)
		}
	}
	a := defaultAcc(t)
	for i := range b.Tuples {
		if err := a.Add(b.Tuples[i], b.Tuples[i].TS); err != nil {
			t.Fatal(err)
		}
	}
	fa, _ := a.Finalize()
	if len(fa) != len(ps) {
		t.Fatalf("accumulator keys %d != post-sort keys %d", len(fa), len(ps))
	}
	psCount := map[string]int{}
	for _, sk := range ps {
		psCount[sk.Key] = sk.Count
	}
	for _, sk := range fa {
		if psCount[sk.Key] != sk.Count {
			t.Errorf("key %s: accumulator %d vs post-sort %d", sk.Key, sk.Count, psCount[sk.Key])
		}
	}
}

func TestAccumulatorTimeStepRefreshesColdKeys(t *testing.T) {
	// A cold key receives a burst early, then a single late tuple. The
	// frequency step alone would leave its published count stale; the
	// time step must refresh it once enough time has elapsed.
	cfg := AccumulatorConfig{Budget: 4, EstimatedTuples: 1000000, EstimatedKeys: 10}
	a, err := NewAccumulator(cfg, 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	// initial f.step = 1M/(10*4) = 25000: frequency step will never fire
	// for a key with a handful of tuples.
	add := func(ts tuple.Time, key string) {
		t.Helper()
		if err := a.Add(tuple.NewTuple(ts, key, 1), ts); err != nil {
			t.Fatal(err)
		}
	}
	add(0, "cold")
	for i := 1; i <= 5; i++ {
		add(tuple.Time(i), "cold") // early burst, no updates yet
	}
	before := a.TreeUpdates()
	// Tuples arriving much later: delta time exceeds t.step
	// ((1s - 0) / budget = 250ms), so the count is republished.
	add(400*tuple.Millisecond, "cold")
	if a.TreeUpdates() <= before {
		t.Fatal("time step did not refresh a cold key")
	}
	sorted, _ := a.Finalize()
	if sorted[0].Key != "cold" || sorted[0].Count != 7 {
		t.Errorf("finalize = %+v", sorted[0])
	}
}

func TestAccumulatorBudgetExhaustionStopsUpdates(t *testing.T) {
	cfg := AccumulatorConfig{Budget: 2, EstimatedTuples: 100, EstimatedKeys: 1}
	a, err := NewAccumulator(cfg, 0, tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	// f.step = 100/(1*2) = 50; feed 1000 tuples of one key: only 2
	// updates allowed no matter how many step boundaries pass.
	for i := 0; i < 1000; i++ {
		ts := tuple.Time(i) * tuple.Millisecond / 2
		if err := a.Add(tuple.NewTuple(ts, "k", 1), ts); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.TreeUpdates(); got > 2 {
		t.Errorf("budget 2 allowed %d updates", got)
	}
	// Exact count still reported at finalize.
	sorted, _ := a.Finalize()
	if sorted[0].Count != 1000 {
		t.Errorf("count = %d, want 1000", sorted[0].Count)
	}
}

// TestFinalizeTieBreakKeyDescending pins Finalize's order among keys with
// equal published frequency: key descending, byte-wise, including keys
// that agree in their first eight bytes or differ only past a NUL.
func TestFinalizeTieBreakKeyDescending(t *testing.T) {
	keys := []string{"a", "a\x00", "ab", "", "abcdefgh", "abcdefgh2", "abcdefgh1", "abcdefg\x00z", "b"}
	a := defaultAcc(t)
	for _, k := range keys {
		if err := a.Add(tuple.NewTuple(0, k, 1), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Add(tuple.NewTuple(0, "hot", 1), 0); err != nil {
		t.Fatal(err)
	}
	// "hot" was seen twice but published once, at count 1, so it ties too.
	if err := a.Add(tuple.NewTuple(0, "hot", 1), 0); err != nil {
		t.Fatal(err)
	}
	want := append([]string{"hot"}, keys...)
	slices.Sort(want)
	slices.Reverse(want)
	sorted, _ := a.Finalize()
	got := make([]string, len(sorted))
	for i, sk := range sorted {
		got[i] = sk.Key
	}
	if !slices.Equal(got, want) {
		t.Errorf("Finalize order %q, want %q", got, want)
	}
}

func TestInitialFStep(t *testing.T) {
	cfg := AccumulatorConfig{Budget: 10, EstimatedTuples: 100000, EstimatedKeys: 1000}
	if got := cfg.initialFStep(); got != 10 {
		t.Errorf("initialFStep = %d, want 10", got)
	}
	cfg = AccumulatorConfig{Budget: 100, EstimatedTuples: 10, EstimatedKeys: 1000}
	if got := cfg.initialFStep(); got != 1 {
		t.Errorf("initialFStep floor = %d, want 1", got)
	}
}
