package check

import (
	"bytes"
	"fmt"
	"math"

	"prompt/internal/approx"
	"prompt/internal/core"
	"prompt/internal/engine"
	"prompt/internal/tuple"
)

// approxSpec is the scenario's approximate-tier configuration: the drawn
// operator with default sizing (the defaults are what the public API
// hands out, so the harness stresses exactly the shipped parameters).
func approxSpec(sc Scenario) approx.Spec {
	return approx.Spec{Kind: approx.Kind(sc.Approx)}
}

// approxArm runs the scenario's scheme with the approximate tier enabled
// and returns the encoded summary after every batch plus the finished
// engine (for final answers and the exact window).
func approxArm(cfg engine.Config, sc Scenario, batches [][]tuple.Tuple) ([][]byte, *engine.Engine, error) {
	eng, err := engine.New(cfg, query(sc))
	if err != nil {
		return nil, nil, err
	}
	encodes := make([][]byte, 0, len(batches))
	err = stepAll(eng, batches, func(int) error {
		encodes = append(encodes, eng.ApproxState().Encode())
		return nil
	})
	return encodes, eng, err
}

// checkApproxInvariant is invariant 10: the approximate summary folded at
// every batch commit must be bit-identical — per batch, at the codec
// level — across worker counts and a mid-run checkpoint/restore, and the
// final answers must sit inside the operator's advertised error bounds of
// the exact window answer from the very same run.
func checkApproxInvariant(sc Scenario, batches [][]tuple.Tuple) []string {
	if sc.Approx == "" {
		return nil
	}
	scheme, err := core.ByName(sc.Scheme)
	if err != nil {
		return []string{err.Error()}
	}
	config := func(workers int) engine.Config {
		cfg := scheme.Apply(baseConfig(workers))
		cfg.Approx = approxSpec(sc)
		return cfg
	}
	refEnc, refEng, err := approxArm(config(0), sc, batches)
	if err != nil {
		return []string{fmt.Sprintf("approx reference failed: %v", err)}
	}
	var violations []string
	diff := func(arm string, encodes [][]byte) {
		for i := range encodes {
			if !bytes.Equal(encodes[i], refEnc[i]) {
				violations = append(violations, fmt.Sprintf(
					"invariant 10 (approx determinism): %s %s batch %d summary state diverged",
					sc.Approx, arm, i))
				return
			}
		}
	}

	if sc.Workers != 0 {
		enc, _, err := approxArm(config(sc.Workers), sc, batches)
		if err != nil {
			return []string{fmt.Sprintf("approx workers=%d run failed: %v", sc.Workers, err)}
		}
		diff(fmt.Sprintf("workers=%d", sc.Workers), enc)
	}

	violations = append(violations, approxCheckpointArm(sc, config(0), batches, refEnc)...)
	violations = append(violations, approxBounds(sc, refEng)...)
	return violations
}

// approxCheckpointArm checkpoints at CheckpointAt, restores into a fresh
// engine, finishes the run, and compares every post-restore summary image
// byte for byte against the uninterrupted reference.
func approxCheckpointArm(sc Scenario, cfg engine.Config, batches [][]tuple.Tuple, refEnc [][]byte) []string {
	eng, err := engine.New(cfg, query(sc))
	if err != nil {
		return []string{fmt.Sprintf("approx checkpoint engine: %v", err)}
	}
	if err := stepAll(eng, batches[:sc.CheckpointAt], nil); err != nil {
		return []string{fmt.Sprintf("approx checkpoint arm failed: %v", err)}
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		return []string{fmt.Sprintf("approx checkpoint failed: %v", err)}
	}
	resumed, err := engine.Restore(cfg, []engine.Query{query(sc)}, &buf)
	if err != nil {
		return []string{fmt.Sprintf("approx restore failed: %v", err)}
	}
	if img := resumed.ApproxState().Encode(); !bytes.Equal(img, refEnc[sc.CheckpointAt-1]) {
		return []string{fmt.Sprintf(
			"invariant 10 (approx determinism): %s restored summary differs from the live state at batch %d",
			sc.Approx, sc.CheckpointAt-1)}
	}
	var violations []string
	for i := sc.CheckpointAt; i < len(batches); i++ {
		start := tuple.Time(i) * tuple.Second
		if _, err := resumed.Step(batches[i], start, start+tuple.Second); err != nil {
			return append(violations, fmt.Sprintf("approx restored run failed at batch %d: %v", i, err))
		}
		if img := resumed.ApproxState().Encode(); !bytes.Equal(img, refEnc[i]) {
			violations = append(violations, fmt.Sprintf(
				"invariant 10 (approx determinism): %s summary diverged at batch %d after restore (checkpoint at %d)",
				sc.Approx, i, sc.CheckpointAt))
			break
		}
	}
	return violations
}

// approxBounds checks the finished reference run's approximate answers
// against its own exact window. The frequency bounds only apply under the
// Sum reduce (the estimator folds additive per-batch masses, which a
// Max-reduce scenario does not produce); key membership and the distinct
// bound hold for every query.
func approxBounds(sc Scenario, eng *engine.Engine) []string {
	const eps = 1e-6
	est := eng.ApproxState()
	exact := eng.WindowSnapshot()
	bound := est.ErrorBound()
	var violations []string
	switch approx.Kind(sc.Approx) {
	case approx.CountMinKind:
		if sc.NonInvertible {
			return nil
		}
		for key, truth := range exact {
			v := est.Estimate(key)
			if v < truth-eps || v > truth+bound+eps {
				violations = append(violations, fmt.Sprintf(
					"invariant 10 (approx bounds): countmin %q estimate %g outside [%g, %g]",
					key, v, truth, truth+bound))
			}
		}
	case approx.SpaceSavingKind:
		if sc.NonInvertible {
			return nil
		}
		entries := est.TopK(math.MaxInt32)
		if len(entries) == 0 && len(exact) > 0 {
			return []string{"invariant 10 (approx bounds): spacesaving tracked no keys"}
		}
		for _, e := range entries {
			truth := exact[e.Key]
			if truth > e.Val+eps || truth < e.Val-e.Err-eps {
				violations = append(violations, fmt.Sprintf(
					"invariant 10 (approx bounds): spacesaving %q true %g outside [%g, %g]",
					e.Key, truth, e.Val-e.Err, e.Val))
			}
		}
	case approx.HLLKind:
		if d := est.Distinct(); math.Abs(d-float64(len(exact))) > bound+eps {
			violations = append(violations, fmt.Sprintf(
				"invariant 10 (approx bounds): hll distinct %g vs exact %d exceeds bound %g",
				d, len(exact), bound))
		}
	default: // samplers: every sampled key must exist in the exact window
		entries := est.TopK(math.MaxInt32)
		if len(entries) == 0 && len(exact) > 0 {
			return []string{fmt.Sprintf("invariant 10 (approx bounds): %s sampled no keys", sc.Approx)}
		}
		for _, e := range entries {
			if _, ok := exact[e.Key]; !ok {
				violations = append(violations, fmt.Sprintf(
					"invariant 10 (approx bounds): %s sampled key %q absent from the exact window",
					sc.Approx, e.Key))
			}
		}
	}
	// The committed reports must advertise the tier on every batch.
	for _, r := range eng.Reports() {
		if r.ApproxBytes <= 0 {
			violations = append(violations, fmt.Sprintf(
				"invariant 10 (approx bounds): batch %d report carries ApproxBytes %d with the tier on",
				r.Index, r.ApproxBytes))
			break
		}
	}
	return violations
}
