package engine

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"prompt/internal/codec"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

func TestReordererValidation(t *testing.T) {
	if _, err := NewReorderer(-1); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestReordererRepairsOrder(t *testing.T) {
	r, err := NewReorderer(100 * tuple.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals out of event order but within the delay bound.
	arrivals := []workload.Arrival{
		{Tuple: tuple.NewTuple(50*tuple.Millisecond, "b", 1), At: 120 * tuple.Millisecond},
		{Tuple: tuple.NewTuple(20*tuple.Millisecond, "a", 1), At: 120 * tuple.Millisecond},
		{Tuple: tuple.NewTuple(900*tuple.Millisecond, "c", 1), At: 950 * tuple.Millisecond},
		{Tuple: tuple.NewTuple(1100*tuple.Millisecond, "next", 1), At: 1100 * tuple.Millisecond},
	}
	for _, a := range arrivals {
		if !r.Ingest(a) {
			t.Fatalf("in-bound arrival dropped: %+v", a)
		}
	}
	batch, err := r.Seal(tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("sealed %d tuples, want 3", len(batch))
	}
	for i := 1; i < len(batch); i++ {
		if batch[i].TS < batch[i-1].TS {
			t.Fatal("sealed batch not in event-time order")
		}
	}
	if r.Pending() != 1 {
		t.Errorf("pending = %d, want the next-batch tuple", r.Pending())
	}
}

func TestReordererDropsLateTuples(t *testing.T) {
	r, err := NewReorderer(50 * tuple.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// 200ms late: beyond the bound.
	if r.Ingest(workload.Arrival{
		Tuple: tuple.NewTuple(100*tuple.Millisecond, "late", 1),
		At:    300 * tuple.Millisecond,
	}) {
		t.Error("over-delay tuple accepted")
	}
	if r.Dropped() != 1 {
		t.Errorf("dropped = %d", r.Dropped())
	}
	// Event time inside a sealed batch: dropped even if within delay.
	if !r.Ingest(workload.Arrival{Tuple: tuple.NewTuple(990*tuple.Millisecond, "x", 1), At: tuple.Second}) {
		t.Error("valid tuple dropped")
	}
	if _, err := r.Seal(tuple.Second); err == nil {
		t.Error("sealed without having ingested up to end+MaxDelay")
	}
	r.Ingest(workload.Arrival{Tuple: tuple.NewTuple(1200*tuple.Millisecond, "y", 1), At: 1100 * tuple.Millisecond})
	if _, err := r.Seal(tuple.Second); err != nil {
		t.Fatal(err)
	}
	if r.Ingest(workload.Arrival{Tuple: tuple.NewTuple(995*tuple.Millisecond, "z", 1), At: 1040 * tuple.Millisecond}) {
		t.Error("tuple for a sealed batch accepted")
	}
}

// referenceReorderer is the executable specification Seal is tested
// against: it buffers accepted tuples in ingestion order and answers each
// seal by stably sorting the whole buffer by event time — so
// equal-timestamp tuples keep ingestion order — and cutting at the batch
// end. The real Reorderer must match it while only ever sorting the newly
// ingested suffix and merging in place.
type referenceReorderer struct {
	maxDelay tuple.Time
	pending  []tuple.Tuple
	sealed   tuple.Time
	dropped  int
}

func (r *referenceReorderer) ingest(a workload.Arrival) {
	if a.At-a.Tuple.TS > r.maxDelay || a.Tuple.TS < r.sealed {
		r.dropped++
		return
	}
	r.pending = append(r.pending, a.Tuple)
}

func (r *referenceReorderer) seal(end tuple.Time) []tuple.Tuple {
	slices.SortStableFunc(r.pending, func(a, b tuple.Tuple) int { return cmp.Compare(a.TS, b.TS) })
	cut, _ := slices.BinarySearchFunc(r.pending, end, func(t tuple.Tuple, end tuple.Time) int {
		return cmp.Compare(t.TS, end)
	})
	out := append([]tuple.Tuple(nil), r.pending[:cut]...)
	r.pending = append(r.pending[:0], r.pending[cut:]...)
	r.sealed = end
	return out
}

// TestReordererSealMatchesStableSortReference is the property test for
// the incremental Seal: for random arrival orders — timestamps quantized
// so equal event times are common, delays occasionally past the bound so
// drops interleave — repeated seals must produce exactly the tuples a
// stable sort of the whole buffer would, batch after batch. Each tuple
// carries a unique Val, so a tie broken in the wrong order (or a tuple
// lost by the in-place merge) flips the comparison.
func TestReordererSealMatchesStableSortReference(t *testing.T) {
	const (
		maxDelay = 500 * tuple.Millisecond
		quantum  = 100 * tuple.Millisecond // coarse event times force TS ties
		batches  = 6
	)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, err := NewReorderer(maxDelay)
		if err != nil {
			return false
		}
		ref := &referenceReorderer{maxDelay: maxDelay}
		at := tuple.Time(0)
		serial := 0.0
		for b := 1; b <= batches; b++ {
			end := tuple.Time(b) * tuple.Second
			for at < end+maxDelay {
				at += tuple.Time(rng.Int63n(int64(50 * tuple.Millisecond)))
				// Delay up to 1.5× the bound: ~1/3 of tuples are late.
				delay := tuple.Time(rng.Int63n(int64(maxDelay) * 3 / 2))
				ts := (at - delay) / quantum * quantum
				if ts < 0 {
					ts = 0
				}
				serial++
				a := workload.Arrival{Tuple: tuple.NewTuple(ts, "k", serial), At: at}
				r.Ingest(a)
				ref.ingest(a)
			}
			r.AdvanceWatermark(at)
			got, err := r.Seal(end)
			if err != nil {
				t.Logf("seed %d batch %d: %v", seed, b, err)
				return false
			}
			want := ref.seal(end)
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d batch %d: sealed %d tuples, reference %d; first divergence: %v",
					seed, b, len(got), len(want), firstDiff(got, want))
				return false
			}
			if r.Dropped() != ref.dropped {
				t.Logf("seed %d batch %d: dropped %d, reference %d", seed, b, r.Dropped(), ref.dropped)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func firstDiff(got, want []tuple.Tuple) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("index %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(got), len(want))
}

// TestReordererSealTieAcrossMergeBoundary pins the tie-break rule at its
// sharpest edge: two tuples with the same event timestamp where one is a
// leftover from the previous seal (the sorted prefix) and the other was
// ingested afterwards (the stably-sorted suffix). The merge must keep
// ingestion order — prefix first — which requires the <= comparison on
// the prefix side.
func TestReordererSealTieAcrossMergeBoundary(t *testing.T) {
	r, err := NewReorderer(500 * tuple.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ingest := func(ts, at tuple.Time, serial float64) {
		t.Helper()
		if !r.Ingest(workload.Arrival{Tuple: tuple.NewTuple(ts, "k", serial), At: at}) {
			t.Fatalf("in-bound tuple %v dropped", serial)
		}
	}
	// Batch 1 plus an early arrival for batch 2 at TS 1500 ms: after the
	// seal it stays pending as the sorted prefix.
	ingest(500*tuple.Millisecond, 600*tuple.Millisecond, 1)
	ingest(1500*tuple.Millisecond, 1400*tuple.Millisecond, 2)
	r.AdvanceWatermark(1500 * tuple.Millisecond)
	if _, err := r.Seal(tuple.Second); err != nil {
		t.Fatal(err)
	}
	if r.Pending() != 1 {
		t.Fatalf("pending = %d, want the early tuple", r.Pending())
	}
	// Two more arrivals at the same TS 1500 ms, ingested after the seal:
	// they form the suffix and must come out behind the prefix tuple.
	ingest(1500*tuple.Millisecond, 1600*tuple.Millisecond, 3)
	ingest(1500*tuple.Millisecond, 1700*tuple.Millisecond, 4)
	r.AdvanceWatermark(2500 * tuple.Millisecond)
	batch, err := r.Seal(2 * tuple.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("sealed %d tuples, want 3", len(batch))
	}
	for i, want := range []float64{2, 3, 4} {
		if batch[i].Val != want {
			t.Errorf("tie broken out of ingestion order: position %d is tuple %v, want %v",
				i, batch[i].Val, want)
		}
	}
}

func TestRunReorderedMatchesInOrderStream(t *testing.T) {
	// With MaxDelay >= MaxJitter nothing is dropped, and the windowed
	// answer equals a run over the unjittered stream.
	mkInner := func() *workload.Source { return testSource(5000, 80, 61) }

	plain, err := New(testConfig(), WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.RunBatches(mkInner(), 4); err != nil {
		t.Fatal(err)
	}

	jit, err := workload.NewJittered(mkInner(), 200*tuple.Millisecond, 9)
	if err != nil {
		t.Fatal(err)
	}
	reord, err := NewReorderer(200 * tuple.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(testConfig(), WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunReordered(jit, reord, 4); err != nil {
		t.Fatal(err)
	}
	if reord.Dropped() != 0 {
		t.Errorf("dropped %d tuples despite MaxDelay >= MaxJitter", reord.Dropped())
	}
	want := plain.WindowSnapshot()
	got := eng.WindowSnapshot()
	if len(got) != len(want) {
		t.Fatalf("window keys %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("key %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestRunReorderedDropsBeyondBound(t *testing.T) {
	inner := testSource(5000, 80, 63)
	jit, err := workload.NewJittered(inner, 400*tuple.Millisecond, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Delay bound below the jitter: some tuples must be dropped, but the
	// engine keeps running and every batch stays within its interval.
	reord, err := NewReorderer(100 * tuple.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(testConfig(), WordCount(window.Sliding(10*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := eng.RunReordered(jit, reord, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reord.Dropped() == 0 {
		t.Error("no drops despite jitter exceeding the delay bound")
	}
	total := 0
	for _, rep := range reports {
		total += rep.Tuples
	}
	if total+reord.Dropped()+reord.Pending() < 4*4500 {
		t.Errorf("tuples unaccounted for: processed %d, dropped %d, pending %d",
			total, reord.Dropped(), reord.Pending())
	}
}

// reordererSection round-trips a reorderer through the checkpoint's
// reorderer section alone.
func reordererSection(t *testing.T, r *Reorderer) (*Reorderer, error) {
	t.Helper()
	b := (&Engine{reorder: r}).appendReorderer(nil)
	e := &Engine{}
	rd := codec.NewReader(b, ErrCheckpoint)
	e.decodeReorderer(rd)
	if err := rd.End(); err != nil {
		return nil, err
	}
	if !bytes.Equal(e.appendReorderer(nil), b) {
		t.Fatal("restored reorderer writes a different section")
	}
	return e.reorder, nil
}

// TestReordererImageColumnarRoundTrip proves the checkpoint's columnar
// reorderer section is lossless: write a loaded reorderer's section,
// decode it on its own, and compare the full internal state against a
// restore-free twin.
func TestReordererImageColumnarRoundTrip(t *testing.T) {
	r, err := NewReorderer(200 * tuple.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	keys := []string{"a", "b", "c", "d"}
	at := tuple.Time(0)
	for i := 0; i < 500; i++ {
		at += tuple.Time(rng.Intn(int(tuple.Millisecond)))
		r.Ingest(workload.Arrival{
			At: at,
			Tuple: tuple.Tuple{
				TS:     at - tuple.Time(rng.Intn(int(100*tuple.Millisecond))),
				Key:    keys[rng.Intn(len(keys))],
				Val:    rng.NormFloat64(),
				Weight: 1 + rng.Intn(3),
			},
		})
	}
	r2, err := reordererSection(t, r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r2.pending, r.pending) {
		t.Fatal("restored pending buffer diverges from the live one")
	}
	if r2.MaxDelay != r.MaxDelay || r2.sorted != r.sorted || r2.sealed != r.sealed || r2.ingested != r.ingested || r2.dropped != r.dropped {
		t.Fatalf("restored state (%v,%d,%v,%v,%d) != live (%v,%d,%v,%v,%d)",
			r2.MaxDelay, r2.sorted, r2.sealed, r2.ingested, r2.dropped,
			r.MaxDelay, r.sorted, r.sealed, r.ingested, r.dropped)
	}
	// Both must seal the next batch identically.
	end := r.Ingested() - r.MaxDelay
	got, err := r2.Seal(end)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Seal(end)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored reorderer seals a different batch")
	}
}

// TestReordererImageRejectsBadColumns exercises the reorderer section's
// validation: a column cut short, a negative delay bound, and a sorted
// prefix longer than the buffer must fail the restore, not corrupt the
// buffer.
func TestReordererImageRejectsBadColumns(t *testing.T) {
	base := &Reorderer{MaxDelay: 5, sorted: 1, pending: []tuple.Tuple{
		{TS: 1, Key: "k", Val: 1, Weight: 1},
		{TS: 2, Key: "k", Val: 2, Weight: 1 << 40},
	}}
	if _, err := reordererSection(t, base); err != nil {
		t.Fatalf("valid section rejected: %v", err)
	}
	short := (&Engine{reorder: base}).appendReorderer(nil)
	rd := codec.NewReader(short[:len(short)-1], ErrCheckpoint)
	(&Engine{}).decodeReorderer(rd)
	if err := rd.End(); !errors.Is(err, ErrCheckpoint) {
		t.Errorf("weight column cut short: got %v, want ErrCheckpoint", err)
	}
	for name, bad := range map[string]*Reorderer{
		"negative delay":  {MaxDelay: -1, pending: base.pending},
		"sorted too long": {MaxDelay: 5, sorted: 3, pending: base.pending},
	} {
		if _, err := reordererSection(t, bad); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: got %v, want ErrCheckpoint", name, err)
		}
	}
}
