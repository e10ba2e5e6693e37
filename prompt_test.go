package prompt_test

import (
	"math"
	"testing"
	"time"

	"prompt"

	"prompt/internal/tuple"
	"prompt/internal/workload"
)

func testStream(t *testing.T, scheme prompt.Scheme) *prompt.Stream {
	t.Helper()
	st, err := prompt.New(prompt.Config{
		BatchInterval: time.Second,
		MapTasks:      4,
		ReduceTasks:   4,
		Scheme:        scheme,
		Validate:      true,
	}, prompt.WordCount(5*time.Second, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func feed(t *testing.T, st *prompt.Stream, src *workload.Source, batches int) []prompt.BatchReport {
	t.Helper()
	var reports []prompt.BatchReport
	for i := 0; i < batches; i++ {
		start := st.Now()
		ts, err := src.Slice(start, start+tuple.Second)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := st.ProcessBatch(ts)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	return reports
}

func tweetsSource(t *testing.T, rate float64) *workload.Source {
	t.Helper()
	src, err := workload.Tweets(workload.ConstantRate(rate),
		workload.DatasetDefaults{Cardinality: 2_000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := prompt.New(prompt.Config{Scheme: "nosuch"}, prompt.WordCount(time.Minute, time.Second)); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := prompt.New(prompt.Config{BatchInterval: -time.Second}, prompt.WordCount(time.Minute, time.Second)); err == nil {
		t.Error("negative interval accepted")
	}
}

func TestZeroConfigDefaultsToPrompt(t *testing.T) {
	st, err := prompt.New(prompt.Config{}, prompt.WordCount(time.Minute, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if st.SchemeName() != "prompt" {
		t.Errorf("default scheme = %s", st.SchemeName())
	}
	if st.BatchInterval() != tuple.Second {
		t.Errorf("default interval = %v", st.BatchInterval())
	}
}

func TestSchemeNames(t *testing.T) {
	names := prompt.SchemeNames()
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []string{"prompt", "prompt-postsort", "time", "shuffle", "hash", "pk2", "pk5", "cam"} {
		if !seen[want] {
			t.Errorf("SchemeNames missing %q", want)
		}
	}
	// Every advertised scheme must construct.
	for _, n := range names {
		if _, err := prompt.New(prompt.Config{Scheme: prompt.Scheme(n)}, prompt.WordCount(time.Minute, time.Second)); err != nil {
			t.Errorf("scheme %q does not construct: %v", n, err)
		}
	}
}

func TestEndToEndWordCount(t *testing.T) {
	st := testStream(t, "prompt")
	src := tweetsSource(t, 10_000)
	reports := feed(t, st, src, 3)

	// Cross-check against the raw stream.
	src.Reset()
	want := map[string]float64{}
	for i := 0; i < 3; i++ {
		ts, err := src.Slice(tuple.Time(i)*tuple.Second, tuple.Time(i+1)*tuple.Second)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ts {
			want[ts[j].Key]++
		}
	}
	got := st.Window()
	if len(got) != len(want) {
		t.Fatalf("window keys %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("key %s = %v, want %v", k, got[k], v)
		}
	}
	if len(reports) != 3 || reports[2].Index != 2 {
		t.Errorf("reports: %+v", reports)
	}
}

func TestAllSchemesAgreeOnAnswers(t *testing.T) {
	var reference map[string]float64
	for _, scheme := range prompt.Schemes() {
		st := testStream(t, scheme)
		feed(t, st, tweetsSource(t, 5_000), 2)
		got := st.Window()
		if reference == nil {
			reference = got
			continue
		}
		if len(got) != len(reference) {
			t.Fatalf("%s: %d keys, reference %d", scheme, len(got), len(reference))
		}
		for k, v := range reference {
			if got[k] != v {
				t.Errorf("%s: key %s = %v, want %v", scheme, k, got[k], v)
			}
		}
	}
}

func TestTopKRequiresWindow(t *testing.T) {
	st, err := prompt.New(prompt.Config{}, prompt.PerBatch("counts", nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.TopK(3); err == nil {
		t.Error("TopK on windowless query succeeded")
	}
}

func TestTopKOrder(t *testing.T) {
	st := testStream(t, "prompt")
	tuples := []prompt.Tuple{
		prompt.NewTuple(1, "a", 1), prompt.NewTuple(2, "a", 1), prompt.NewTuple(3, "a", 1),
		prompt.NewTuple(4, "b", 1), prompt.NewTuple(5, "b", 1),
		prompt.NewTuple(6, "c", 1),
	}
	if _, err := st.ProcessBatch(tuples); err != nil {
		t.Fatal(err)
	}
	top, err := st.TopK(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Key != "a" || top[0].Val != 3 || top[1].Key != "b" {
		t.Errorf("TopK = %+v", top)
	}
}

func TestResultIsPerBatch(t *testing.T) {
	st := testStream(t, "prompt")
	if _, err := st.ProcessBatch([]prompt.Tuple{prompt.NewTuple(1, "x", 1)}); err != nil {
		t.Fatal(err)
	}
	batch2 := []prompt.Tuple{
		prompt.NewTuple(tuple.Second+1, "y", 1),
		prompt.NewTuple(tuple.Second+2, "y", 1),
	}
	if _, err := st.ProcessBatch(batch2); err != nil {
		t.Fatal(err)
	}
	res := st.Result()
	if len(res) != 1 || res["y"] != 2 {
		t.Errorf("Result = %v, want {y:2}", res)
	}
	// Window accumulates both batches.
	win := st.Window()
	if win["x"] != 1 || win["y"] != 2 {
		t.Errorf("Window = %v", win)
	}
}

func TestSetParallelismThroughAPI(t *testing.T) {
	st := testStream(t, "prompt")
	if err := st.Reconfigure(prompt.WithParallelism(6, 3)); err != nil {
		t.Fatal(err)
	}
	if err := st.SetCores(12); err != nil {
		t.Fatal(err)
	}
	rep, err := st.ProcessBatch([]prompt.Tuple{prompt.NewTuple(1, "x", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MapTasks != 6 || rep.ReduceTasks != 3 || rep.Cores != 12 {
		t.Errorf("parallelism not applied: %+v", rep)
	}
}

func TestAtAndNewTuple(t *testing.T) {
	if prompt.At(1500*time.Millisecond) != tuple.Time(1_500_000) {
		t.Error("At conversion wrong")
	}
	tp := prompt.NewTuple(prompt.At(time.Second), "k", 7)
	if tp.Key != "k" || tp.Val != 7 || tp.Weight != 1 {
		t.Errorf("NewTuple = %+v", tp)
	}
}

func TestSummarizeExported(t *testing.T) {
	st := testStream(t, "prompt")
	feed(t, st, tweetsSource(t, 2_000), 2)
	s := prompt.Summarize(st.Reports())
	if s.Batches != 2 || s.Tuples == 0 {
		t.Errorf("summary: %+v", s)
	}
}
