package harness

import (
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{200, 95}, {199, 94}, {140, 92}, {100, 90}, {1000, 99}, {20, 50}, {10, 0}, {0, 0},
	} {
		if got := HighestPercentile(c.n); got != c.want {
			t.Errorf("HighestPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := Percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (ten samples beyond it)", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
}

// fakeClock advances only when told to: Sleep moves it forward, and the
// test's submit function charges each batch's processing time to it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesAStallToTheBatchesBehindIt(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const interval = 100 * time.Millisecond
	const normal = 10 * time.Millisecond
	res, err := openLoop(clk, 8, interval,
		func(int) {},
		func(i int) (time.Duration, bool, error) {
			d := normal
			if i == 2 {
				d = 300 * time.Millisecond // the injected stall
			}
			clk.Sleep(d)
			return d, false, nil
		},
		func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	// Batch 2 stalls for 300 ms. Batches 3, 4 and 5 were due 100, 200
	// and 300 ms after it, while it was still running, so each starts
	// late and is charged the wait; batch 6 is on time again.
	want := []float64{10, 10, 300, 210, 120, 30, 10, 10}
	if !reflect.DeepEqual(res.DelayMS, want) {
		t.Errorf("delays = %v, want %v", res.DelayMS, want)
	}
	wantLag := []float64{0, 0, 0, 200, 110, 20, 0, 0}
	if !reflect.DeepEqual(res.StartLagMS, wantLag) {
		t.Errorf("start lags = %v, want %v", res.StartLagMS, wantLag)
	}
	if res.Late != 3 {
		t.Errorf("late batches = %d, want 3 (delay above one interval)", res.Late)
	}
	if res.MaxBacklog != 2 {
		t.Errorf("max backlog = %d, want 2 (batches 4 and 5 already due when 3 was submitted)", res.MaxBacklog)
	}
	if res.Wall != 8*interval+normal {
		t.Errorf("wall = %v, want %v: the driver never skips a batch", res.Wall, 8*interval+normal)
	}
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	for _, w := range Workloads() {
		w = w.Toy()
		a, b, c := Generate(w, 7), Generate(w, 7), Generate(w, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different cycles", w.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same cycle", w.Name)
		}
		if len(a.Batches) != w.CycleLen || len(a.Batches[0]) != w.Tuples {
			t.Errorf("%s: cycle is %d x %d, want %d x %d", w.Name, len(a.Batches), len(a.Batches[0]), w.CycleLen, w.Tuples)
		}
	}
	hot, _ := WorkloadByName("zipf-hot")
	uds, _ := WorkloadByName("cluster-uds")
	if !reflect.DeepEqual(Generate(hot.Toy(), 3), Generate(uds.Toy(), 3)) {
		t.Error("cluster-uds must be fed the byte-identical input of zipf-hot")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestToyWorkloadsEndToEnd runs every workload at toy size (sharded
// workloads over in-process loopback shards) through the real phases:
// each must pass its answer check and print each end-to-end metric
// exactly once, with a unit.
func TestToyWorkloadsEndToEnd(t *testing.T) {
	for _, w := range Workloads() {
		var log bytes.Buffer
		res, per, err := RunEndToEnd(w.Toy(), 1, 3, Env{}, &log)
		if err != nil {
			t.Fatalf("%s: %v\n%s", w.Name, err, log.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w.Name, res.Correct, res.Attempted, res.Failed, log.String())
		}
		if len(per["delay_ms_p50"]) != 1 {
			t.Errorf("%s: per-round samples %v, want one round", w.Name, per)
		}
		if len(res.Metrics) != len(EndToEnd) {
			t.Errorf("%s: %d metrics in the result, want %d", w.Name, len(res.Metrics), len(EndToEnd))
		}
		for _, m := range EndToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || v.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w.Name, m.Name, v, ok, m.Unit)
			}
			if !metricName.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %v", m.Name, metricName)
			}
			if n := strings.Count(log.String(), "  "+m.Name+" "); n != 1 {
				t.Errorf("%s: metric %s printed %d times, want once", w.Name, m.Name, n)
			}
		}
	}
}

func TestAnswerCheckNamesTheFirstDifferingKey(t *testing.T) {
	got := map[string]float64{"a": 1, "b": 2, "c": 3}
	want := map[string]float64{"a": 1, "b": 5, "c": 4}
	err := diffWindows("window", got, want)
	if err == nil || !strings.Contains(err.Error(), `"b"`) || !strings.Contains(err.Error(), "2") || !strings.Contains(err.Error(), "5") {
		t.Errorf("diffWindows = %v, want the first differing key b with both values", err)
	}
	if err := diffWindows("window", map[string]float64{"a": 1, "gone": 0}, map[string]float64{"a": 1}); err != nil {
		t.Errorf("an evicted key held at 0 is not a difference: %v", err)
	}

	// A wrong answer from the stream must fail the check.
	w, _ := WorkloadByName("zipf-hot")
	r, err := Setup(w.Toy(), 1, Env{}, BuildPublic)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Check(); err != nil {
		t.Fatalf("fresh stream fails its check: %v", err)
	}
	r.recent[0]++ // pretend a different batch was submitted
	if err := r.Check(); err == nil {
		t.Error("check passed against a reference built from the wrong batches")
	}
}
