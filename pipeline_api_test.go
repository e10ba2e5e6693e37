package prompt_test

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"prompt"

	"prompt/internal/workload"
)

// pipeSource builds a deterministic BatchSource from a seeded workload.
func pipeSource(t *testing.T, seed int64) prompt.BatchSource {
	t.Helper()
	ks, err := workload.NewZipfSampler("k", 80, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	src := &workload.Source{Name: "pipe-api", Rate: workload.ConstantRate(5000), Keys: ks, Seed: seed}
	return func(start, end prompt.Time) ([]prompt.Tuple, error) { return src.Slice(start, end) }
}

// scrubWallPipe zeroes the wall-clock-derived report fields; pipelining may
// change those and nothing else.
func scrubWallPipe(reps []prompt.BatchReport) []prompt.BatchReport {
	out := append([]prompt.BatchReport(nil), reps...)
	for i := range out {
		out[i].PartitionTime = 0
		out[i].PartitionOverflow = 0
		out[i].MapStageTime = 0
		out[i].ReduceStageTime = 0
		out[i].ReduceTaskTimes = nil
		out[i].ProcessingTime = 0
		out[i].QueueWait = 0
		out[i].Latency = 0
		out[i].W = 0
		out[i].Stable = false
	}
	return out
}

// TestPipelinedStreamMatchesSequential pins the public contract of
// WithPipelineDepth: a Run at depth 2 or 3 produces the same reports
// (modulo measured wall time), window, and answers as the default
// driver.
func TestPipelinedStreamMatchesSequential(t *testing.T) {
	const batches = 8
	q := prompt.WordCount(10*time.Second, time.Second)
	run := func(depth int) ([]prompt.BatchReport, map[string]float64) {
		st, err := prompt.NewWithOptions(q,
			prompt.WithWorkers(4),
			prompt.WithPipelineDepth(depth),
		)
		if err != nil {
			t.Fatal(err)
		}
		reps, err := st.Run(pipeSource(t, 97), batches)
		if err != nil {
			t.Fatal(err)
		}
		return reps, st.Window()
	}
	refReps, refWin := run(1)
	for _, depth := range []int{2, 3} {
		reps, win := run(depth)
		if !reflect.DeepEqual(scrubWallPipe(reps), scrubWallPipe(refReps)) {
			t.Errorf("depth %d: reports diverge from depth 1", depth)
		}
		if !reflect.DeepEqual(win, refWin) {
			t.Errorf("depth %d: window diverges from depth 1", depth)
		}
	}
}

// TestReconfigurePipelineDepth: depth is a runtime option — it can change
// between Runs, invalid values are rejected with the stream unchanged,
// and the answers still match a sequential reference.
func TestReconfigurePipelineDepth(t *testing.T) {
	q := prompt.WordCount(10*time.Second, time.Second)
	ref, err := prompt.NewWithOptions(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(pipeSource(t, 131), 6); err != nil {
		t.Fatal(err)
	}
	refWin := ref.Window()

	st, err := prompt.NewWithOptions(q)
	if err != nil {
		t.Fatal(err)
	}
	src := pipeSource(t, 131)
	if _, err := st.Run(src, 3); err != nil {
		t.Fatal(err)
	}
	if err := st.Reconfigure(prompt.WithPipelineDepth(2)); err != nil {
		t.Fatalf("Reconfigure(WithPipelineDepth(2)): %v", err)
	}
	if _, err := st.Run(src, 3); err != nil {
		t.Fatal(err)
	}
	win := st.Window()
	if !reflect.DeepEqual(win, refWin) {
		t.Error("window diverges after mid-run depth change")
	}

	if err := st.Reconfigure(prompt.WithPipelineDepth(99)); !errors.Is(err, prompt.ErrBadConfig) {
		t.Errorf("Reconfigure(WithPipelineDepth(99)) = %v, want ErrBadConfig", err)
	}
	if _, err := prompt.NewWithOptions(q, prompt.WithPipelineDepth(-1)); !errors.Is(err, prompt.ErrBadConfig) {
		t.Errorf("WithPipelineDepth(-1) = %v, want ErrBadConfig", err)
	}
}
