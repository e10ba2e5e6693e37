package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"prompt/internal/backpressure"
	"prompt/internal/intern"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

func TestCheckpointRestoreResumesIdentically(t *testing.T) {
	cfg := testConfig()
	q := WordCount(window.Sliding(5*tuple.Second, tuple.Second))

	// Reference: a single engine runs 8 batches.
	ref, err := New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	srcRef := testSource(5000, 80, 91)
	if _, err := ref.RunBatches(srcRef, 8); err != nil {
		t.Fatal(err)
	}

	// Checkpointed: run 4 batches, checkpoint, restore, run 4 more.
	first, err := New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(5000, 80, 91)
	if _, err := first.RunBatches(src, 4); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(cfg, []Query{q}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Now() != first.Now() {
		t.Fatalf("restored Now %v != %v", resumed.Now(), first.Now())
	}
	if _, err := resumed.RunBatches(src, 4); err != nil {
		t.Fatal(err)
	}

	// Window answers identical to the uninterrupted run.
	want := ref.WindowSnapshot()
	got := resumed.WindowSnapshot()
	if len(got) != len(want) {
		t.Fatalf("window keys %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("key %s = %v, want %v", k, got[k], v)
		}
	}
	// History carried over.
	if len(resumed.Reports()) != 8 {
		t.Errorf("restored engine has %d reports, want 8", len(resumed.Reports()))
	}
	if resumed.Reports()[7].Index != 7 {
		t.Errorf("batch indices not continuous: %+v", resumed.Reports()[7])
	}
}

// reorderSide is one arm of the checkpoint round-trip below: an engine
// driving a jittered stream through a reorder buffer, its offered rate
// scaled by an AIMD throttle observed after every batch.
type reorderSide struct {
	eng *Engine
	r   *Reorderer
	src *workload.Jittered
	th  *backpressure.AIMD
}

// throttleRate reads the side's *current* throttle at generation time, so
// a restored arm generates from the restored Factor.
type throttleRate struct{ s *reorderSide }

func (tr throttleRate) RateAt(tuple.Time) float64 { return 3000 * tr.s.th.Factor }

func newReorderSide(t *testing.T, maxDelay tuple.Time) *reorderSide {
	t.Helper()
	s := &reorderSide{}
	keys, err := workload.NewUniformSampler("k", 60)
	if err != nil {
		t.Fatal(err)
	}
	inner := &workload.Source{Name: "rt", Rate: throttleRate{s}, Keys: keys, Seed: 7}
	src, err := workload.NewJittered(inner, 400*tuple.Millisecond, 11)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReorderer(maxDelay)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(testConfig(), WordCount(window.Sliding(5*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	th := backpressure.NewAIMD()
	th.Observe(false) // start mid-backoff: Factor 0.7, below Max
	eng.AttachThrottle(th)
	s.eng, s.r, s.src, s.th = eng, r, src, th
	return s
}

// step runs one reordered batch and feeds its stability back into the
// throttle, closing the back-pressure loop.
func (s *reorderSide) step(t *testing.T) BatchReport {
	t.Helper()
	reps, err := s.eng.RunReordered(s.src, s.r, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.th.Observe(reps[0].Stable)
	return reps[0]
}

// TestCheckpointCarriesReordererAndThrottle is the regression test for
// checkpoint amnesia: the image used to omit the reorder buffer (pending
// tuples, sealing horizons, drop count) and the AIMD Factor, so a
// restored engine silently dropped every buffered tuple and sprang back
// to full rate. The round trip happens mid-stream — reorder buffer
// non-empty, throttle below Max, drops already charged — and the resumed
// run must produce bit-identical BatchReports and window answers vs. the
// uninterrupted one.
func TestCheckpointCarriesReordererAndThrottle(t *testing.T) {
	// Freeze the pipeline clock: measured partition times become zero on
	// both arms, so the reports compare bit for bit.
	restoreClock := StubClock(func() time.Time { return time.Unix(0, 0) })
	defer restoreClock()

	// Jitter (400 ms) deliberately exceeds the delay bound (200 ms), so
	// the reorderer drops a steady trickle — drop accounting must survive
	// the restore too.
	const maxDelay = 200 * tuple.Millisecond
	const half = 4

	ref := newReorderSide(t, maxDelay)
	for i := 0; i < 2*half; i++ {
		ref.step(t)
	}

	ckpt := newReorderSide(t, maxDelay)
	for i := 0; i < half; i++ {
		ckpt.step(t)
	}
	if ckpt.r.Pending() == 0 {
		t.Fatal("reorder buffer empty at the checkpoint: the round trip would prove nothing")
	}
	if !ckpt.th.Triggered() {
		t.Fatal("throttle not engaged at the checkpoint")
	}
	if ckpt.r.Dropped() == 0 {
		t.Fatal("no drops before the checkpoint")
	}

	var buf bytes.Buffer
	if err := ckpt.eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(testConfig(),
		[]Query{WordCount(window.Sliding(5*tuple.Second, tuple.Second))}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	r2 := resumed.Reorderer()
	if r2 == nil {
		t.Fatal("restored engine lost its reorder buffer")
	}
	if r2.Pending() != ckpt.r.Pending() || r2.Sealed() != ckpt.r.Sealed() ||
		r2.Ingested() != ckpt.r.Ingested() || r2.Dropped() != ckpt.r.Dropped() {
		t.Fatalf("restored reorderer pending=%d sealed=%v ingested=%v dropped=%d, want %d/%v/%v/%d",
			r2.Pending(), r2.Sealed(), r2.Ingested(), r2.Dropped(),
			ckpt.r.Pending(), ckpt.r.Sealed(), ckpt.r.Ingested(), ckpt.r.Dropped())
	}
	th2 := resumed.Throttle()
	if th2 == nil {
		t.Fatal("restored engine lost its throttle")
	}
	if *th2 != *ckpt.th {
		t.Fatalf("restored throttle %+v, want %+v", *th2, *ckpt.th)
	}

	// Resume on the restored state: same source instance (the stream
	// position is part of neither engine), restored buffer and throttle.
	ckpt.eng, ckpt.r, ckpt.th = resumed, r2, th2
	for i := 0; i < half; i++ {
		ckpt.step(t)
	}

	if !reflect.DeepEqual(ckpt.eng.Reports(), ref.eng.Reports()) {
		for i := range ref.eng.Reports() {
			if !reflect.DeepEqual(ckpt.eng.Reports()[i], ref.eng.Reports()[i]) {
				t.Fatalf("report %d diverged after restore:\n got %+v\nwant %+v",
					i, ckpt.eng.Reports()[i], ref.eng.Reports()[i])
			}
		}
		t.Fatal("reports diverged after restore")
	}
	if !reflect.DeepEqual(ckpt.eng.WindowSnapshot(), ref.eng.WindowSnapshot()) {
		t.Error("window answers diverged after restore")
	}
	if got := Summarize(ckpt.eng.Reports()).TuplesDropped; got != ref.r.Dropped() {
		t.Errorf("reports account %d dropped tuples, reorderer counted %d", got, ref.r.Dropped())
	}
}

// TestCheckpointKeepsWidePendingWeight is the regression test for a
// narrowing reorder image: a tuple whose weight does not fit the int32
// weight column, pending in the reorder buffer across a checkpoint, used to
// come back narrowed to a valid weight, so the restored run accepted the
// batch the uninterrupted run rejects. Both must fail the same batch with
// ErrWeightOverflow.
func TestCheckpointKeepsWidePendingWeight(t *testing.T) {
	const maxDelay = 200 * tuple.Millisecond
	const ms = tuple.Millisecond
	wide := tuple.Tuple{TS: 1100 * ms, Key: "w", Val: 1, Weight: 1<<32 + 3}
	arrivals := []workload.Arrival{
		{At: 100 * ms, Tuple: tuple.NewTuple(100*ms, "a", 1)},
		// Arrives before batch 0 seals, so it is pending at the checkpoint.
		{At: 1150 * ms, Tuple: wide},
		{At: 1500 * ms, Tuple: tuple.NewTuple(1500*ms, "a", 1)},
	}
	q := WordCount(window.Sliding(5*tuple.Second, tuple.Second))
	newSide := func() *Engine {
		eng, err := New(testConfig(), q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReorderer(maxDelay)
		if err != nil {
			t.Fatal(err)
		}
		eng.AttachReorderer(r)
		return eng
	}
	// step ingests every arrival the next batch's seal needs, then seals and
	// runs that batch.
	step := func(eng *Engine) error {
		r := eng.Reorderer()
		start := eng.Now()
		end := start + eng.Config().BatchInterval
		for _, a := range arrivals {
			if a.At >= r.Ingested() && a.At < end+maxDelay {
				r.Ingest(a)
			}
		}
		r.AdvanceWatermark(end + maxDelay)
		tuples, err := r.Seal(end)
		if err != nil {
			return err
		}
		_, err = eng.Step(tuples, start, end)
		return err
	}

	ref := newSide()
	if err := step(ref); err != nil {
		t.Fatalf("uninterrupted batch 0: %v", err)
	}
	if err := step(ref); !errors.Is(err, tuple.ErrWeightOverflow) {
		t.Fatalf("uninterrupted batch 1: %v, want ErrWeightOverflow", err)
	}

	first := newSide()
	if err := step(first); err != nil {
		t.Fatalf("batch 0 before the checkpoint: %v", err)
	}
	if first.Reorderer().Pending() != 1 {
		t.Fatalf("%d tuples pending at the checkpoint, want the wide one", first.Reorderer().Pending())
	}
	var buf bytes.Buffer
	if err := first.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(testConfig(), []Query{q}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := step(resumed); !errors.Is(err, tuple.ErrWeightOverflow) {
		t.Fatalf("restored batch 1: %v, want ErrWeightOverflow", err)
	}
}

func TestRestoreValidatesQueries(t *testing.T) {
	cfg := testConfig()
	q := WordCount(window.Sliding(5*tuple.Second, tuple.Second))
	eng, err := New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step([]tuple.Tuple{tuple.NewTuple(1, "k", 1)}, 0, tuple.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Wrong query count.
	if _, err := Restore(cfg, []Query{q, q}, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("query-count mismatch accepted")
	}
	// Windowless query against a windowed checkpoint.
	if _, err := Restore(cfg, []Query{{Name: "plain"}}, bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("window mismatch accepted")
	}
	// Garbage input.
	if _, err := Restore(cfg, []Query{q}, bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
}

// TestWindowStateRoundTrip carries a window through the checkpoint's
// window section — slot images out, slot images back into a fresh
// aggregator over the dictionary as the dictionary section restores it —
// and keeps sliding it.
func TestWindowStateRoundTrip(t *testing.T) {
	spec := window.Sliding(3*tuple.Second, tuple.Second)
	dict := intern.NewDict(0)
	ag, err := window.NewAggregatorDict(spec, window.Sum, window.SumInverse, dict)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := ag.AddBatch(tuple.Time(i)*tuple.Second, map[string]float64{"a": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	images := exportWindows([]*window.Aggregator{ag}, dict)
	if v, _ := ag.Value("a"); v != 6 {
		t.Errorf("export disturbed the window: value = %v, want 6", v)
	}
	dict2, err := intern.FromSnapshot(dict.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	ag2, err := window.NewAggregatorDict(spec, window.Sum, window.SumInverse, dict2)
	if err != nil {
		t.Fatal(err)
	}
	if err := restoreWindows(images, []*window.Aggregator{ag2}, dict2); err != nil {
		t.Fatal(err)
	}
	if v, _ := ag2.Value("a"); v != 6 {
		t.Errorf("restored value = %v, want 6", v)
	}
	if ag2.Batches() != 3 {
		t.Errorf("restored batches = %d", ag2.Batches())
	}
	// Continue adding: eviction behaves as if never interrupted.
	if err := ag2.AddBatch(4*tuple.Second, map[string]float64{"a": 4}); err != nil {
		t.Fatal(err)
	}
	if v, _ := ag2.Value("a"); v != 9 { // 2+3+4
		t.Errorf("after continued batch = %v, want 9", v)
	}
	if err := restoreWindows(images[:3], []*window.Aggregator{ag2}, dict2); err == nil {
		t.Error("a window section with slot images missing was accepted")
	}
}

// TestRestoreRejectsPreSlotImageCheckpoint: testdata/checkpoint_pr11.gob
// was written by the engine as it stood before the window section became
// slot images (three batches of the shared test workload, a 3 s window).
// gob would decode it without complaint — fields the image lacks stay zero
// — and the engine would resume with empty windows; the version check turns
// that into a typed refusal.
func TestRestoreRejectsPreSlotImageCheckpoint(t *testing.T) {
	old, err := os.ReadFile("testdata/checkpoint_pr11.gob")
	if err != nil {
		t.Fatal(err)
	}
	q := WordCount(window.Sliding(3*tuple.Second, tuple.Second))
	if _, err := Restore(testConfig(), []Query{q}, bytes.NewReader(old)); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("restoring a pre-slot-image checkpoint: error %v, want ErrCheckpointVersion", err)
	}
	// The same state checkpointed today restores.
	eng, err := New(testConfig(), q)
	if err != nil {
		t.Fatal(err)
	}
	elasticRun(t, eng, 3, nil)
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(testConfig(), []Query{q}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.WindowSnapshot(), eng.WindowSnapshot(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("restored window %v, want %v", got, want)
	}
}

// TestReportHistoryAndCheckpointAreBounded: the engine keeps a fixed tail
// of reports, so on a steady stream neither Reports nor the checkpoint
// image — which embeds them — grows with the run once the tail is full.
// Before the bound both grew by one report per batch, forever.
func TestReportHistoryAndCheckpointAreBounded(t *testing.T) {
	restore := StubClock(func() time.Time { return time.Unix(0, 0) })
	defer restore()
	cfg := testConfig()
	cfg.ValidateBatches = false
	eng, err := New(cfg, WordCount(window.Sliding(2*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	// The same eight tuples every batch: every report, and every window,
	// has the same size, so only the history can make the image grow.
	run := func(upTo int) (reports, image int) {
		for eng.batchIdx < upTo {
			start := eng.Now()
			ts := make([]tuple.Tuple, 8)
			for j := range ts {
				ts[j] = tuple.NewTuple(start+tuple.Time(j), fmt.Sprintf("k%d", j%4), 1)
			}
			if _, err := eng.Step(ts, start, start+tuple.Second); err != nil {
				t.Fatal(err)
			}
		}
		return len(eng.Reports()), checkpointOf(t, eng).Len()
	}
	const n = reportTail + 200 // past the bound
	reportsN, imageN := run(n)
	reports2N, image2N := run(2 * n)
	if reportsN != reportTail || reports2N != reportTail {
		t.Errorf("len(Reports()) = %d after %d batches and %d after %d, want %d both times",
			reportsN, n, reports2N, 2*n, reportTail)
	}
	// Batch indices and times grow, and with them a few varint bytes per
	// report; a history that grew would add hundreds of kilobytes.
	if grow := image2N - imageN; grow < 0 || grow > imageN/50 {
		t.Errorf("checkpoint is %d bytes after %d batches and %d after %d: it grows with the run",
			imageN, n, image2N, 2*n)
	}
	last := eng.Reports()
	if got := last[len(last)-1].Index; got != 2*n-1 {
		t.Errorf("newest report is batch %d, want %d", got, 2*n-1)
	}
	if got := last[0].Index; got != 2*n-reportTail {
		t.Errorf("oldest kept report is batch %d, want %d", got, 2*n-reportTail)
	}
	resumed, err := Restore(cfg, []Query{WordCount(window.Sliding(2*tuple.Second, tuple.Second))}, checkpointOf(t, eng))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Reports(), last) {
		t.Error("restored report tail differs from the checkpointed one")
	}
}

func checkpointOf(t *testing.T, eng *Engine) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}
