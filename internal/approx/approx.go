// Package approx is the engine's approximate-query tier: bounded-memory
// summaries that ride alongside the exact per-key reduces and answer
// point-frequency, top-k, and distinct-count queries with advertised
// error bounds. Three sketches (Count-Min, Space-Saving, HyperLogLog) and
// three window samplers (hash reservoir, chain, priority) share one
// windowed Estimator shell.
//
// Every operator is deterministic under the seeded splittable hash of
// internal/hashutil — no random state, so two runs over the same batch
// outputs produce bit-identical summaries regardless of worker count or
// transport. Every operator is mergeable, so sharded paths can build
// partials independently and combine them,
// and checkpointable through a versioned image on internal/codec that
// has exactly one encoding per estimator.
package approx

import (
	"fmt"
	"sort"
)

// Kind names one approximate operator.
type Kind string

// The supported operators.
const (
	// CountMinKind is a Count-Min sketch: point frequency estimates with
	// one-sided error est ∈ [true, true + e/width · N].
	CountMinKind Kind = "countmin"
	// SpaceSavingKind is the Space-Saving top-k summary with per-entry
	// overestimation bounds: est − err ≤ true ≤ est.
	SpaceSavingKind Kind = "spacesaving"
	// HLLKind is a HyperLogLog distinct counter with 2^precision
	// registers and the linear-counting small-range correction.
	HLLKind Kind = "hll"
	// ReservoirKind is a bottom-k hash reservoir: a uniform coordinated
	// sample of the window's key universe.
	ReservoirKind Kind = "reservoir"
	// ChainKind re-draws the bottom-k hash per batch (the chain-sampling
	// flavor), so the sample rotates as the window slides.
	ChainKind Kind = "chain"
	// PriorityKind is a Duffield-style priority sample: keep the k keys
	// with the largest val/u priority, biasing the sample toward heavy
	// keys.
	PriorityKind Kind = "priority"
)

// Kinds returns all operator kinds in canonical order.
func Kinds() []Kind {
	return []Kind{CountMinKind, SpaceSavingKind, HLLKind, ReservoirKind, ChainKind, PriorityKind}
}

// ParseKind converts a name into a Kind.
func ParseKind(name string) (Kind, error) {
	for _, k := range Kinds() {
		if string(k) == name {
			return k, nil
		}
	}
	return "", fmt.Errorf("approx: unknown operator kind %q", name)
}

// Spec configures one estimator. The zero value means "no approximate
// query"; any non-empty Kind enables the tier with the remaining zero
// fields taking defaults.
type Spec struct {
	// Kind selects the operator.
	Kind Kind
	// K is the counter budget of Space-Saving and the sample budget of
	// the samplers. Default 32.
	K int
	// Depth and Width size the Count-Min sketch. Defaults 4 and 2048
	// (ε = e/2048 ≈ 0.13% of the window mass).
	Depth, Width int
	// Precision is HyperLogLog's register exponent p (2^p registers).
	// Default 12.
	Precision int
	// Seed selects the splittable hash family. Default 1.
	Seed uint64
}

// Enabled reports whether the spec asks for an approximate query.
func (s Spec) Enabled() bool { return s.Kind != "" }

// WithDefaults fills unset sizing fields.
func (s Spec) WithDefaults() Spec {
	if s.K == 0 {
		s.K = 32
	}
	if s.Depth == 0 {
		s.Depth = 4
	}
	if s.Width == 0 {
		s.Width = 2048
	}
	if s.Precision == 0 {
		s.Precision = 12
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Validate rejects malformed specs (after defaults).
func (s Spec) Validate() error {
	if !s.Enabled() {
		return nil
	}
	if _, err := ParseKind(string(s.Kind)); err != nil {
		return err
	}
	d := s.WithDefaults()
	if d.K < 1 || d.K > 1<<20 {
		return fmt.Errorf("approx: K %d outside [1, 2^20]", d.K)
	}
	if d.Depth < 1 || d.Depth > 16 {
		return fmt.Errorf("approx: depth %d outside [1, 16]", d.Depth)
	}
	if d.Width < 8 || d.Width > 1<<20 {
		return fmt.Errorf("approx: width %d outside [8, 2^20]", d.Width)
	}
	if d.Precision < 4 || d.Precision > 18 {
		return fmt.Errorf("approx: precision %d outside [4, 18]", d.Precision)
	}
	return nil
}

// Entry is one ranked answer of a top-k query: the estimated value and
// the operator's overestimation bound for this key (est − Err ≤ true ≤
// est for Space-Saving; Err is zero for operators without a per-entry
// bound).
type Entry struct {
	Key string
	Val float64
	Err float64
}

// sortedKeys returns the result map's keys in ascending order — the
// canonical fold order every operator uses, so summaries are independent
// of map iteration.
func sortedKeys(result map[string]float64) []string {
	keys := make([]string, 0, len(result))
	for k := range result {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
