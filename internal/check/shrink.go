package check

// Shrink greedily minimizes a failing scenario: it tries one simplifying
// mutation at a time — fewer batches, lower rate, fewer keys, fewer
// faults, no jitter, no throttle — keeps a mutation only if the scenario
// still fails, and repeats until no mutation helps. The result is the
// smallest scenario this search finds that still violates an invariant,
// which is what a human wants to debug instead of the original.
func Shrink(sc Scenario, fails func(Scenario) bool) Scenario {
	if !fails(sc) {
		return sc
	}
	reductions := []func(Scenario) (Scenario, bool){
		func(s Scenario) (Scenario, bool) {
			if s.Batches <= 2 {
				return s, false
			}
			s.Batches = (s.Batches + 1) / 2
			if s.CheckpointAt >= s.Batches {
				s.CheckpointAt = s.Batches - 1
			}
			return s, true
		},
		// Halving overshoots thresholds; stepping by one lands on them.
		func(s Scenario) (Scenario, bool) {
			if s.Batches <= 2 {
				return s, false
			}
			s.Batches--
			if s.CheckpointAt >= s.Batches {
				s.CheckpointAt = s.Batches - 1
			}
			return s, true
		},
		func(s Scenario) (Scenario, bool) {
			if s.Rate <= 100 {
				return s, false
			}
			s.Rate = s.Rate / 2
			return s, true
		},
		func(s Scenario) (Scenario, bool) {
			if s.Keys <= 2 {
				return s, false
			}
			s.Keys = (s.Keys + 1) / 2
			return s, true
		},
		func(s Scenario) (Scenario, bool) {
			if s.FaultEvents == 0 {
				return s, false
			}
			s.FaultEvents--
			return s, true
		},
		func(s Scenario) (Scenario, bool) {
			if s.JitterMS == 0 {
				return s, false
			}
			s.JitterMS = 0
			return s, true
		},
		func(s Scenario) (Scenario, bool) {
			if s.MaxDelayMS == 0 {
				return s, false
			}
			s.MaxDelayMS = 0
			return s, true
		},
		func(s Scenario) (Scenario, bool) {
			if !s.Throttle {
				return s, false
			}
			s.Throttle = false
			return s, true
		},
		func(s Scenario) (Scenario, bool) {
			if !s.NonInvertible {
				return s, false
			}
			s.NonInvertible = false
			return s, true
		},
		func(s Scenario) (Scenario, bool) {
			if s.Workers == 0 {
				return s, false
			}
			s.Workers = 0
			return s, true
		},
		func(s Scenario) (Scenario, bool) {
			if s.Skew == "uniform" {
				return s, false
			}
			s.Skew = "uniform"
			return s, true
		},
		func(s Scenario) (Scenario, bool) {
			if s.CheckpointAt <= 1 {
				return s, false
			}
			s.CheckpointAt = 1
			return s, true
		},
		// Drop scale events one at a time (down to a static run with zero
		// migrations), so a failure unrelated to elasticity sheds it.
		func(s Scenario) (Scenario, bool) {
			if len(s.ScaleEvents) == 0 {
				return s, false
			}
			s.ScaleEvents = append([]ScaleEvent(nil), s.ScaleEvents[:len(s.ScaleEvents)-1]...)
			return s, true
		},
		// Turn the approximate tier off, so a failure unrelated to it
		// sheds the operator (invariant 10 skips an empty Approx).
		func(s Scenario) (Scenario, bool) {
			if s.Approx == "" {
				return s, false
			}
			s.Approx = ""
			return s, true
		},
	}
	// Each accepted mutation strictly simplifies a bounded field, so the
	// fixpoint terminates; the cap is a backstop against a pathological
	// fails predicate.
	for rounds := 0; rounds < 64; rounds++ {
		improved := false
		for _, reduce := range reductions {
			cand, ok := reduce(sc)
			if !ok {
				continue
			}
			if fails(cand) {
				sc = cand
				improved = true
			}
		}
		if !improved {
			return sc
		}
	}
	return sc
}
