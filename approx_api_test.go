package prompt_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"prompt"
	"prompt/internal/tuple"
)

// approxBatches builds n skewed one-second batches.
func approxBatches(n int) [][]prompt.Tuple {
	batches := make([][]prompt.Tuple, n)
	for b := 0; b < n; b++ {
		var tuples []prompt.Tuple
		base := prompt.Time(b) * tuple.Second
		for i := 0; i < 400; i++ {
			key := fmt.Sprintf("k%02d", (i*i+b)%40)
			tuples = append(tuples, prompt.NewTuple(base+prompt.Time(i)*1000, key, 1))
		}
		batches[b] = tuples
	}
	return batches
}

func TestParseApproxKind(t *testing.T) {
	for _, k := range prompt.ApproxKinds() {
		got, err := prompt.ParseApproxKind(string(k))
		if err != nil || got != k {
			t.Errorf("ParseApproxKind(%q) = %q, %v", k, got, err)
		}
	}
	if _, err := prompt.ParseApproxKind("bogus"); !errors.Is(err, prompt.ErrBadConfig) {
		t.Errorf("ParseApproxKind(bogus) error = %v, want ErrBadConfig", err)
	}
	q := prompt.WordCount(time.Second, time.Second)
	if _, err := prompt.NewWithOptions(q, prompt.WithApproxQuery("nope")); !errors.Is(err, prompt.ErrBadConfig) {
		t.Errorf("WithApproxQuery(nope) error = %v, want ErrBadConfig", err)
	}
}

func TestApproxAccessorsRequireConfig(t *testing.T) {
	st, err := prompt.NewWithOptions(prompt.WordCount(time.Second, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if st.HasApprox() {
		t.Fatal("HasApprox() = true without an approximate query")
	}
	if _, err := st.ApproxEstimate("k"); !errors.Is(err, prompt.ErrNoApprox) {
		t.Errorf("ApproxEstimate error = %v, want ErrNoApprox", err)
	}
	if _, err := st.ApproxTopK(3); !errors.Is(err, prompt.ErrNoApprox) {
		t.Errorf("ApproxTopK error = %v, want ErrNoApprox", err)
	}
	if _, err := st.ApproxDistinct(); !errors.Is(err, prompt.ErrNoApprox) {
		t.Errorf("ApproxDistinct error = %v, want ErrNoApprox", err)
	}
}

// TestApproxAnswersWithinBounds runs every operator over a skewed stream
// and checks its answers against the exact window of the same run.
func TestApproxAnswersWithinBounds(t *testing.T) {
	batches := approxBatches(4)
	for _, kind := range prompt.ApproxKinds() {
		t.Run(string(kind), func(t *testing.T) {
			st, err := prompt.NewWithOptions(prompt.WordCount(time.Second, time.Second),
				prompt.WithApproxQuery(kind))
			if err != nil {
				t.Fatal(err)
			}
			if !st.HasApprox() {
				t.Fatal("HasApprox() = false")
			}
			reps, err := st.Run(prompt.FixedBatches(batches...), len(batches))
			if err != nil {
				t.Fatal(err)
			}
			exact := st.Window()
			bound, err := st.ApproxErrorBound()
			if err != nil {
				t.Fatal(err)
			}
			switch kind {
			case prompt.ApproxCountMin:
				for key, truth := range exact {
					est, err := st.ApproxEstimate(key)
					if err != nil {
						t.Fatal(err)
					}
					if est < truth-1e-9 || est > truth+bound+1e-9 {
						t.Errorf("countmin %s: est %v outside [%v, %v]", key, est, truth, truth+bound)
					}
				}
			case prompt.ApproxSpaceSaving:
				entries, err := st.ApproxTopK(10)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) == 0 {
					t.Fatal("spacesaving returned no entries")
				}
				for _, e := range entries {
					truth := exact[e.Key]
					if truth > e.Val+1e-9 || truth < e.Val-e.Err-1e-9 {
						t.Errorf("spacesaving %s: true %v outside [%v, %v]", e.Key, truth, e.Val-e.Err, e.Val)
					}
				}
			case prompt.ApproxHLL:
				distinct, err := st.ApproxDistinct()
				if err != nil {
					t.Fatal(err)
				}
				if diff := math.Abs(distinct - float64(len(exact))); diff > bound {
					t.Errorf("hll: |%v - %d| = %v exceeds bound %v", distinct, len(exact), diff, bound)
				}
			default: // samplers: every sampled key must exist in the window
				entries, err := st.ApproxTopK(1 << 20)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) == 0 {
					t.Fatal("sampler returned no entries")
				}
				for _, e := range entries {
					if _, ok := exact[e.Key]; !ok {
						t.Errorf("sampler key %s not in exact window", e.Key)
					}
				}
			}
			// Every committed report must advertise the tier.
			for _, r := range reps {
				if r.ApproxBytes <= 0 {
					t.Errorf("batch %d: ApproxBytes = %d, want > 0", r.Index, r.ApproxBytes)
				}
			}
			sum := prompt.Summarize(reps)
			if sum.MaxApproxBytes <= 0 {
				t.Errorf("summary MaxApproxBytes = %d, want > 0", sum.MaxApproxBytes)
			}
		})
	}
}

// TestApproxDeterminismAcrossRuntimes pins bit-identical approximate
// answers across worker counts, shard clusters, and a mid-run
// checkpoint/restore.
func TestApproxDeterminismAcrossRuntimes(t *testing.T) {
	batches := approxBatches(4)
	query := func() prompt.Query { return prompt.WordCount(2*time.Second, time.Second) }
	run := func(opts ...prompt.Option) (map[string]float64, []prompt.ApproxEntry) {
		t.Helper()
		opts = append([]prompt.Option{prompt.WithApproxQuery(prompt.ApproxSpaceSaving)}, opts...)
		st, err := prompt.NewWithOptions(query(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Run(prompt.FixedBatches(batches...), len(batches)); err != nil {
			t.Fatal(err)
		}
		top, err := st.ApproxTopK(8)
		if err != nil {
			t.Fatal(err)
		}
		return st.Window(), top
	}
	baseWin, baseTop := run()
	for name, opts := range map[string][]prompt.Option{
		"workers": {prompt.WithWorkers(4)},
		"shards":  {prompt.WithShards(2)},
	} {
		win, top := run(opts...)
		if !reflect.DeepEqual(win, baseWin) || !reflect.DeepEqual(top, baseTop) {
			t.Errorf("%s run diverged from baseline", name)
		}
	}

	// Checkpoint after two batches, restore, finish: answers must match.
	cfg := prompt.Config{Approx: prompt.ApproxQuery{Kind: prompt.ApproxSpaceSaving}}
	st, err := prompt.New(cfg, query())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(prompt.FixedBatches(batches[:2]...), 2); err != nil {
		t.Fatal(err)
	}
	image, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := prompt.Restore(cfg, query(), image)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Run(prompt.FixedBatches(batches[2:]...), 2); err != nil {
		t.Fatal(err)
	}
	top, err := restored.ApproxTopK(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(top, baseTop) {
		t.Errorf("restored run diverged:\n got  %v\n want %v", top, baseTop)
	}
}

// TestApproxReportJSON pins the snake_case keys and their omission when
// the tier is off.
func TestApproxReportJSON(t *testing.T) {
	st, err := prompt.NewWithOptions(prompt.WordCount(time.Second, time.Second),
		prompt.WithApproxQuery(prompt.ApproxCountMin))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.ProcessBatch(approxBatches(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"approx_error_bound":`, `"approx_bytes":`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("report JSON missing %s: %s", key, raw)
		}
	}

	off, err := prompt.NewWithOptions(prompt.WordCount(time.Second, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	repOff, err := off.ProcessBatch(approxBatches(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	rawOff, err := json.Marshal(repOff)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(rawOff), "approx") {
		t.Errorf("tier-off report JSON mentions approx: %s", rawOff)
	}
}

// TestApproxReconfigureFrozen pins that the approximate query is
// construction-time configuration.
func TestApproxReconfigureFrozen(t *testing.T) {
	st, err := prompt.NewWithOptions(prompt.WordCount(time.Second, time.Second),
		prompt.WithApproxQuery(prompt.ApproxHLL))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Reconfigure(prompt.WithApproxQuery(prompt.ApproxCountMin)); !errors.Is(err, prompt.ErrBadConfig) {
		t.Errorf("Reconfigure(WithApproxQuery) error = %v, want ErrBadConfig", err)
	}
	// Replaying the current kind is a no-op, not a rejection.
	if err := st.Reconfigure(prompt.WithApproxQuery(prompt.ApproxHLL)); err != nil {
		t.Errorf("replaying current approx kind: %v", err)
	}
}

// TestTopKNonPositiveK: a ranking asked for zero or fewer entries is
// empty, on both stream kinds, for the exact window and for every
// approximate operator. Before the guard, the exact TopK and the
// Space-Saving and sampler rankings sliced entries[:k] and a negative k
// panicked out of the public API.
func TestTopKNonPositiveK(t *testing.T) {
	batch := approxBatches(1)[0]
	for _, kind := range prompt.ApproxKinds() {
		q := prompt.WordCount(time.Second, time.Second)
		single, err := prompt.NewWithOptions(q, prompt.WithApproxQuery(kind))
		if err != nil {
			t.Fatal(err)
		}
		multi, err := prompt.NewMultiWithOptions([]prompt.Query{q}, prompt.WithApproxQuery(kind))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := single.ProcessBatch(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := multi.ProcessBatch(batch); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			rank func(k int) (int, error)
		}{
			{"Stream.TopK", func(k int) (int, error) { e, err := single.TopK(k); return len(e), err }},
			{"MultiStream.TopK", func(k int) (int, error) { e, err := multi.TopK(0, k); return len(e), err }},
			{"Stream.ApproxTopK", func(k int) (int, error) { e, err := single.ApproxTopK(k); return len(e), err }},
			{"MultiStream.ApproxTopK", func(k int) (int, error) { e, err := multi.ApproxTopK(k); return len(e), err }},
		} {
			for _, k := range []int{0, -1, math.MinInt} {
				if n, err := tc.rank(k); err != nil || n != 0 {
					t.Errorf("%s: %s(%d) = %d entries, error %v; want none", kind, tc.name, k, n, err)
				}
			}
		}
	}
}
