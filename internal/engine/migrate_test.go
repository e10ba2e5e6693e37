package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"prompt/internal/migrate"
	"prompt/internal/tuple"
	"prompt/internal/window"
)

// elasticRun drives one engine through `batches` one-second batches of
// the shared deterministic workload, requesting Rescale(owners) after
// each batch index present in rescaleAt. The wall clock is frozen so
// reports compare bit-for-bit.
func elasticRun(t *testing.T, eng *Engine, batches int, rescaleAt map[int]int) {
	t.Helper()
	restore := StubClock(func() time.Time { return time.Unix(0, 0) })
	defer restore()
	src := testSource(3000, 40, 11)
	for i := 0; i < batches; i++ {
		ts, err := src.Slice(tuple.Time(i)*tuple.Second, tuple.Time(i+1)*tuple.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Step(ts, tuple.Time(i)*tuple.Second, tuple.Time(i+1)*tuple.Second); err != nil {
			t.Fatal(err)
		}
		if owners, ok := rescaleAt[i]; ok {
			if err := eng.Rescale(owners); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRescaleIsAnswerNeutral: a run with scale events interleaved is
// bit-identical — reports and windows — to a static run, for invertible
// and no-inverse windows.
func TestRescaleIsAnswerNeutral(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    func() Query
	}{
		{"wordcount", func() Query { return WordCount(window.Sliding(4*tuple.Second, tuple.Second)) }},
		{"max-no-inverse", func() Query {
			q := WordCount(window.Sliding(4*tuple.Second, tuple.Second))
			q.Reduce = window.Max
			q.Inverse = nil
			return q
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			static, err := New(testConfig(), tc.q())
			if err != nil {
				t.Fatal(err)
			}
			elastic, err := New(testConfig(), tc.q())
			if err != nil {
				t.Fatal(err)
			}
			elasticRun(t, static, 8, nil)
			// Scale 1→3→2→5 mid-stream, including mid-window handoffs.
			elasticRun(t, elastic, 8, map[int]int{1: 3, 3: 2, 5: 5})

			if elastic.Migrations() == 0 {
				t.Fatal("no migrations happened; the test is vacuous")
			}
			if got, want := elastic.Reports(), static.Reports(); !reflect.DeepEqual(got, want) {
				t.Fatalf("reports diverged under rescaling")
			}
			if got, want := elastic.WindowSnapshot(), static.WindowSnapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("window diverged under rescaling:\n got  %v\n want %v", got, want)
			}
			if elastic.Owners() != 5 {
				t.Fatalf("owners = %d, want 5", elastic.Owners())
			}
			if static.Owners() != 0 {
				t.Fatalf("static run has ownership tracking on: %d", static.Owners())
			}
		})
	}
}

// TestRescaleNoOp: rescaling to the current owner count migrates nothing.
func TestRescaleNoOp(t *testing.T) {
	eng, err := New(testConfig(), WordCount(window.Sliding(4*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	elasticRun(t, eng, 5, map[int]int{0: 2, 2: 2, 3: 2})
	// The only real handoff set is the 1→2 rescale after batch 0; the
	// later requests restate the current owner count and must be no-ops.
	afterFirst := len(migrate.Plan(1, 2))
	if eng.Migrations() != afterFirst {
		t.Fatalf("migrations = %d, want %d (restating the owner count must not migrate)",
			eng.Migrations(), afterFirst)
	}
	if err := eng.Rescale(0); err == nil {
		t.Fatal("accepted owner count 0")
	}
}

// TestSetCoresLeavesOwnershipUnderTracking: Rescale is the only thing
// that moves key-range ownership. The resource manager's SetCores
// re-provisions cores and nothing else, with or without tracking.
func TestSetCoresLeavesOwnershipUnderTracking(t *testing.T) {
	eng, err := New(testConfig(), WordCount(window.Sliding(4*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetCores(2); err != nil {
		t.Fatal(err)
	}
	elasticRun(t, eng, 2, nil)
	if eng.Migrations() != 0 || eng.Owners() != 0 {
		t.Fatalf("SetCores migrated without tracking: %d handoffs, owners %d", eng.Migrations(), eng.Owners())
	}

	eng2, err := New(testConfig(), WordCount(window.Sliding(4*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	restore := StubClock(func() time.Time { return time.Unix(0, 0) })
	defer restore()
	src := testSource(3000, 40, 11)
	step := func(i int) {
		ts, err := src.Slice(tuple.Time(i)*tuple.Second, tuple.Time(i+1)*tuple.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng2.Step(ts, tuple.Time(i)*tuple.Second, tuple.Time(i+1)*tuple.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng2.Rescale(2); err != nil { // enable tracking
		t.Fatal(err)
	}
	step(0)
	owners, migrations := eng2.Owners(), eng2.Migrations()
	if owners != 2 || migrations == 0 {
		t.Fatalf("Rescale(2) left owners %d after %d handoffs", owners, migrations)
	}
	if err := eng2.SetCores(3); err != nil {
		t.Fatal(err)
	}
	step(1)
	if eng2.Owners() != owners || eng2.Migrations() != migrations {
		t.Fatalf("SetCores(3) under tracking moved ownership: owners %d -> %d, handoffs %d -> %d",
			owners, eng2.Owners(), migrations, eng2.Migrations())
	}
}

// TestCheckpointMidMigration: a checkpoint taken after Rescale but before
// the next batch boundary must carry the pending owner change, and the
// restored engine must complete the handoff — landing bit-identical to a
// static run.
func TestCheckpointMidMigration(t *testing.T) {
	restore := StubClock(func() time.Time { return time.Unix(0, 0) })
	defer restore()
	q := func() Query { return WordCount(window.Sliding(4*tuple.Second, tuple.Second)) }
	static, err := New(testConfig(), q())
	if err != nil {
		t.Fatal(err)
	}
	elasticRun(t, static, 6, nil)

	eng, err := New(testConfig(), q())
	if err != nil {
		t.Fatal(err)
	}
	src := testSource(3000, 40, 11)
	step := func(e *Engine, i int) {
		ts, err := src.Slice(tuple.Time(i)*tuple.Second, tuple.Time(i+1)*tuple.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(ts, tuple.Time(i)*tuple.Second, tuple.Time(i+1)*tuple.Second); err != nil {
			t.Fatal(err)
		}
	}
	step(eng, 0)
	if err := eng.Rescale(2); err != nil {
		t.Fatal(err)
	}
	step(eng, 1)
	step(eng, 2)
	// Mid-migration point: request a rescale, checkpoint before the next
	// batch commits it.
	if err := eng.Rescale(3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(testConfig(), []Query{q()}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Owners() != 2 {
		t.Fatalf("restored owners = %d, want 2", resumed.Owners())
	}
	before := resumed.Migrations()
	for i := 3; i < 6; i++ {
		step(resumed, i)
	}
	if resumed.Owners() != 3 {
		t.Fatalf("pending rescale lost across checkpoint: owners = %d, want 3", resumed.Owners())
	}
	if resumed.Migrations() == before {
		t.Fatal("restored engine applied no handoffs")
	}
	if got, want := resumed.Reports(), static.Reports(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reports diverged across checkpoint-mid-migration")
	}
	if got, want := resumed.WindowSnapshot(), static.WindowSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("window diverged across checkpoint-mid-migration:\n got  %v\n want %v", got, want)
	}
}

// TestRescaleCostFollowsMovedState is the deterministic cost guard of the
// slot-partitioned window: a 1→2 rescale moves 32 of the 64 slots of a
// 30-batch window over 5 000 keys, and what it allocates is a few dozen
// slices per moved slot (about 1 600 in all). The implementation this
// layout replaced found each slot's keys by scanning every key of every
// retained batch — one map per batch and slot on the way out, another on
// the way in, a sorted key list per batch — and measured 28 248
// allocations on this very window, an order of magnitude above the
// ceiling.
func TestRescaleCostFollowsMovedState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement skipped in -short mode")
	}
	const (
		batches = 30
		keys    = 5000
		ceiling = 2500
	)
	cfg := testConfig()
	cfg.ValidateBatches = false
	eng, err := New(cfg, WordCount(window.Sliding(batches*tuple.Second, tuple.Second)))
	if err != nil {
		t.Fatal(err)
	}
	restore := StubClock(func() time.Time { return time.Unix(0, 0) })
	defer restore()
	for b := 0; b < batches; b++ {
		start := tuple.Time(b) * tuple.Second
		ts := make([]tuple.Tuple, keys)
		for i := range ts {
			ts[i] = tuple.NewTuple(start+tuple.Time(i), fmt.Sprintf("key-%04d", i), 1)
		}
		if _, err := eng.Step(ts, start, start+tuple.Second); err != nil {
			t.Fatal(err)
		}
	}
	want := eng.WindowSnapshot()
	owners := 1
	rescale := func() {
		owners = 3 - owners // 1→2, 2→1, …: 32 slots move either way
		if err := eng.Rescale(owners); err != nil {
			t.Fatal(err)
		}
		if err := eng.applyRescale(batches); err != nil {
			t.Fatal(err)
		}
	}
	rescale() // warm: sizes the cell table and the recycled columns
	avg := testing.AllocsPerRun(4, rescale)
	t.Logf("allocations per 32-slot rescale of a %d-batch × %d-key window: %.0f (ceiling %d)", batches, keys, avg, ceiling)
	if avg > ceiling {
		t.Errorf("rescale allocates %.0f, ceiling %d: the hand-off cost no longer follows the moved state", avg, ceiling)
	}
	if got := eng.Migrations(); got != 6*len(migrate.Plan(1, 2)) {
		t.Fatalf("migrations = %d, want %d", got, 6*len(migrate.Plan(1, 2)))
	}
	if got := eng.WindowSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("window changed across the rescales")
	}
}

// TestRejectedImageIsReattached: the hand-off is all-or-nothing. A slot
// image that is rejected after the slot left the windows — here the
// encoding is damaged in flight, once so that it no longer decodes and once
// so that it decodes but no longer applies — must not cost the slot's
// state: the extracted original goes back, the error is returned, and the
// windows answer as before.
func TestRejectedImageIsReattached(t *testing.T) {
	eng, err := NewMulti(testConfig(), []Query{
		WordCount(window.Sliding(4*tuple.Second, tuple.Second)),
		{Name: "plain"},
		WordCount(window.Sliding(2*tuple.Second, tuple.Second)),
	})
	if err != nil {
		t.Fatal(err)
	}
	elasticRun(t, eng, 5, nil)
	views := func() []map[string]float64 {
		return []map[string]float64{eng.WindowOf(0).Snapshot(), eng.WindowOf(0).Recompute(),
			eng.WindowOf(2).Snapshot(), eng.WindowOf(2).Recompute()}
	}
	want := views()
	slot := -1
	for s := 0; s < migrate.NumSlots && slot < 0; s++ {
		if len(eng.WindowOf(0).ExportSlot(s).IDs) > 0 {
			slot = s
		}
	}
	if slot < 0 {
		t.Fatal("no slot holds a key; the test is vacuous")
	}
	for name, damage := range map[string]func(*migrate.Image) []byte{
		"undecodable": func(img *migrate.Image) []byte { enc := img.Encode(); return enc[:len(enc)-3] },
		"misaligned": func(img *migrate.Image) []byte {
			moved := *img
			moved.Queries = append([]migrate.QueryImage(nil), img.Queries...)
			last := &moved.Queries[len(moved.Queries)-1]
			last.Batches = last.Batches[1:] // the second window loses a batch
			return moved.Encode()
		},
	} {
		img := migrate.Extract(slot, 5, 0, 1, eng.aggs, eng.dict)
		if img.Keys() == 0 || reflect.DeepEqual(views(), want) {
			t.Fatalf("%s: extracting slot %d took nothing out", name, slot)
		}
		if err := eng.landImage(img, damage(img)); err == nil {
			t.Fatalf("%s: damaged image landed", name)
		}
		if got := views(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: slot %d was not put back:\n got  %v\n want %v", name, slot, got, want)
		}
	}
	// The engine keeps running and sliding as if nothing had happened.
	static, err := NewMulti(testConfig(), []Query{
		WordCount(window.Sliding(4*tuple.Second, tuple.Second)),
		{Name: "plain"},
		WordCount(window.Sliding(2*tuple.Second, tuple.Second)),
	})
	if err != nil {
		t.Fatal(err)
	}
	elasticRun(t, static, 8, nil)
	restore := StubClock(func() time.Time { return time.Unix(0, 0) })
	defer restore()
	src := testSource(3000, 40, 11)
	for i := 0; i < 8; i++ {
		ts, err := src.Slice(tuple.Time(i)*tuple.Second, tuple.Time(i+1)*tuple.Second)
		if err != nil {
			t.Fatal(err)
		}
		if i < 5 {
			continue // already processed; Slice is called to advance the source
		}
		if _, err := eng.Step(ts, tuple.Time(i)*tuple.Second, tuple.Time(i+1)*tuple.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, qi := range []int{0, 2} {
		if got, want := eng.WindowOf(qi).Snapshot(), static.WindowOf(qi).Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d diverged from a run that never handed off:\n got  %v\n want %v", qi, got, want)
		}
	}
}
