package check

import (
	"reflect"
	"testing"
)

// TestMetamorphicScenarios is the harness entry point: it sweeps the
// seeds selected by the environment (default 1..50), runs every invariant
// on each generated scenario, and — on a violation — prints the scenario,
// a shrunk minimal scenario that still fails, and the exact command that
// replays the failure deterministically.
func TestMetamorphicScenarios(t *testing.T) {
	seeds, err := seedsFromEnv()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		sc := Generate(seed)
		violations := Run(sc)
		if len(violations) == 0 {
			continue
		}
		shrunk := Shrink(sc, func(s Scenario) bool { return len(Run(s)) > 0 })
		t.Errorf("seed %d violates %d invariant(s):\n  scenario: %s\n  shrunk:   %s\n  violations:\n    %s\n  replay: PROMPT_CHECK_SEED=%d go test ./internal/check -run TestMetamorphicScenarios",
			seed, len(violations), sc, shrunk, violations[0], seed)
	}
	t.Logf("checked %d scenarios", len(seeds))
}

// TestGenerateIsDeterministic pins the replay contract: the same seed
// must always expand to the same scenario, or PROMPT_CHECK_SEED could not
// reproduce a failure.
func TestGenerateIsDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		if a, b := Generate(seed), Generate(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d generated two different scenarios:\n  %s\n  %s", seed, a, b)
		}
	}
}

func TestSeedsFromEnv(t *testing.T) {
	cases := []struct {
		name, single, sweep string
		want                []int64
		wantErr             bool
	}{
		{name: "default is 1..50", want: seedRange(1, 50)},
		{name: "single seed wins", single: "7", sweep: "1..3", want: []int64{7}},
		{name: "range", sweep: "3..6", want: []int64{3, 4, 5, 6}},
		{name: "list", sweep: "9, 2,5", want: []int64{9, 2, 5}},
		{name: "bad single", single: "x", wantErr: true},
		{name: "bad range", sweep: "1..x", wantErr: true},
		{name: "empty range", sweep: "5..1", wantErr: true},
		{name: "bad list entry", sweep: "1,two", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("PROMPT_CHECK_SEED", tc.single)
			t.Setenv("PROMPT_CHECK_SEEDS", tc.sweep)
			got, err := seedsFromEnv()
			if tc.wantErr {
				if err == nil {
					t.Fatalf("got %v, want error", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func seedRange(a, b int64) []int64 {
	out := make([]int64, 0, b-a+1)
	for s := a; s <= b; s++ {
		out = append(out, s)
	}
	return out
}

// TestShrinkFindsMinimalScenario drives Shrink with a synthetic failure
// predicate (fails whenever faults are present and at least 3 batches
// run) and checks that the result is minimal: every field the predicate
// does not depend on is reduced to its floor, and the ones it does depend
// on sit exactly at the failure threshold.
func TestShrinkFindsMinimalScenario(t *testing.T) {
	sc := Generate(42)
	sc.Batches, sc.FaultEvents = 8, 3
	fails := func(s Scenario) bool { return s.FaultEvents >= 1 && s.Batches >= 3 }
	got := Shrink(sc, fails)
	if !fails(got) {
		t.Fatalf("shrunk scenario no longer fails: %s", got)
	}
	if got.FaultEvents != 1 || got.Batches != 3 {
		t.Errorf("load-bearing fields not minimal: faults=%d batches=%d, want 1 and 3", got.FaultEvents, got.Batches)
	}
	if got.JitterMS != 0 || got.MaxDelayMS != 0 || got.Throttle || got.NonInvertible ||
		got.Workers != 0 || got.Skew != "uniform" || got.CheckpointAt != 1 ||
		len(got.ScaleEvents) != 0 || got.Approx != "" {
		t.Errorf("irrelevant fields not reduced: %s", got)
	}
	if got.Seed != sc.Seed {
		t.Errorf("shrink changed the seed: %d -> %d", sc.Seed, got.Seed)
	}
}

// TestShrinkKeepsPassingScenario: a scenario the predicate does not fail
// comes back untouched.
func TestShrinkKeepsPassingScenario(t *testing.T) {
	sc := Generate(3)
	if got := Shrink(sc, func(Scenario) bool { return false }); !reflect.DeepEqual(got, sc) {
		t.Errorf("shrink mutated a passing scenario: %s -> %s", sc, got)
	}
}
