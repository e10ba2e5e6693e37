package prompt_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"prompt"
)

// TestStreamCheckpointRoundTrip mirrors the engine's
// TestCheckpointCarriesReordererAndThrottle at the public surface: a
// stream checkpointed mid-run — window populated, report history
// non-empty — and restored in a "new process" must continue exactly
// where the uninterrupted reference run does, batch indices and window
// answers included. The restored arm additionally runs on an in-process
// cluster, proving the image is topology-independent driver state.
func TestStreamCheckpointRoundTrip(t *testing.T) {
	const total, half = 8, 4
	q := prompt.WordCount(5*time.Second, time.Second)
	cfg := prompt.Config{
		BatchInterval: time.Second,
		MapTasks:      4,
		ReduceTasks:   4,
		Validate:      true,
	}
	feedBatches := func(t *testing.T, st *prompt.Stream, src func(start, end prompt.Time) ([]prompt.Tuple, error), n int) []prompt.BatchReport {
		t.Helper()
		reps, err := st.Run(src, n)
		if err != nil {
			t.Fatal(err)
		}
		return reps
	}

	// Reference: one uninterrupted stream.
	ref, err := prompt.New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	refSrc := zipfSource(t, 91)
	feedBatches(t, ref, func(s, e prompt.Time) ([]prompt.Tuple, error) { return refSrc.Slice(s, e) }, total)

	// Checkpointed arm: half the batches, then snapshot mid-stream.
	first, err := prompt.New(cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	src := zipfSource(t, 91)
	pull := func(s, e prompt.Time) ([]prompt.Tuple, error) { return src.Slice(s, e) }
	feedBatches(t, first, pull, half)
	if len(first.Window()) == 0 {
		t.Fatal("window empty at the checkpoint: the round trip would prove nothing")
	}
	image, err := first.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Restore under a cluster topology and resume on the same source
	// position (the stream position is part of neither arm's engine).
	ccfg := cfg
	ccfg.Topology = prompt.Topology{Local: 2}
	resumed, err := prompt.Restore(ccfg, q, image)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if resumed.Now() != first.Now() {
		t.Fatalf("restored Now %v != %v", resumed.Now(), first.Now())
	}
	if !reflect.DeepEqual(resumed.Window(), first.Window()) {
		t.Fatal("restored window differs from the checkpointed one")
	}
	feedBatches(t, resumed, pull, total-half)

	got, want := scrubReports(resumed.Reports()), scrubReports(ref.Reports())
	if len(got) != total {
		t.Fatalf("restored stream has %d reports, want %d", len(got), total)
	}
	if got[total-1].Index != total-1 {
		t.Errorf("batch indices not continuous after restore: %+v", got[total-1])
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("report %d diverged after restore:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
		t.Fatal("reports diverged after restore")
	}
	if !reflect.DeepEqual(resumed.Window(), ref.Window()) {
		t.Error("window answers diverged after restore")
	}
	if !reflect.DeepEqual(resumed.Result(), ref.Result()) {
		t.Error("last batch results diverged after restore")
	}
}

func TestRestoreValidation(t *testing.T) {
	q := prompt.WordCount(5*time.Second, time.Second)
	st, err := prompt.New(prompt.Config{}, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ProcessBatch([]prompt.Tuple{prompt.NewTuple(1, "k", 1)}); err != nil {
		t.Fatal(err)
	}
	image, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// A windowless query against a windowed checkpoint.
	if _, err := prompt.Restore(prompt.Config{}, prompt.PerBatch("plain", nil, nil, nil), image); err == nil {
		t.Error("window mismatch accepted")
	}
	// Garbage image.
	if _, err := prompt.Restore(prompt.Config{}, q, []byte("junk")); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
	// The image is plain bytes: corruption anywhere must error, not panic,
	// and every section is CRC-sealed, so a flipped byte never restores.
	bad := bytes.Repeat(image, 1)
	bad[len(bad)/2] ^= 0xFF
	if _, err := prompt.Restore(prompt.Config{}, q, bad); err == nil {
		t.Error("mid-image bit flip accepted")
	}

	// RestoreMulti round-trips a multi-query checkpoint.
	m, err := prompt.NewMulti(prompt.Config{}, q, prompt.SlidingSum("sum", 3*time.Second, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ProcessBatch([]prompt.Tuple{prompt.NewTuple(1, "k", 2)}); err != nil {
		t.Fatal(err)
	}
	mimg, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := prompt.RestoreMulti(prompt.Config{}, mimg, q, prompt.SlidingSum("sum", 3*time.Second, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	w1, err := m.Window(1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := m2.Window(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w1, w2) {
		t.Errorf("restored multi window %v, want %v", w2, w1)
	}
	if _, err := prompt.RestoreMulti(prompt.Config{}, mimg, q); err == nil {
		t.Error("query-count mismatch accepted")
	}
}
