package prompt

import (
	"fmt"

	"prompt/internal/approx"
)

// ApproxKind names an approximate-query operator. The tier answers
// point-frequency, top-k, and distinct-count questions from bounded
// memory with advertised error bounds, folded from the exact per-key
// results at every batch commit — so approximate answers are
// deterministic and bit-identical across worker counts, ingestion
// layouts, pipelining, topologies, and checkpoint/restore, exactly like
// the exact ones.
type ApproxKind string

// The supported approximate operators.
const (
	// ApproxCountMin estimates per-key frequency with one-sided error:
	// true <= estimate <= true + bound.
	ApproxCountMin ApproxKind = ApproxKind(approx.CountMinKind)
	// ApproxSpaceSaving tracks the top keys with per-entry
	// overestimation bounds: estimate − err <= true <= estimate.
	ApproxSpaceSaving ApproxKind = ApproxKind(approx.SpaceSavingKind)
	// ApproxHLL counts distinct keys with a HyperLogLog.
	ApproxHLL ApproxKind = ApproxKind(approx.HLLKind)
	// ApproxReservoir keeps a uniform coordinated bottom-k sample of the
	// window's keys.
	ApproxReservoir ApproxKind = ApproxKind(approx.ReservoirKind)
	// ApproxChain re-draws the bottom-k hash per batch, rotating the
	// sample as the window slides.
	ApproxChain ApproxKind = ApproxKind(approx.ChainKind)
	// ApproxPriority keeps the keys with the largest value/uniform
	// priority — a weighted sample biased toward heavy keys.
	ApproxPriority ApproxKind = ApproxKind(approx.PriorityKind)
)

// ApproxKinds returns all operator kinds in canonical order.
func ApproxKinds() []ApproxKind {
	ks := approx.Kinds()
	out := make([]ApproxKind, len(ks))
	for i, k := range ks {
		out[i] = ApproxKind(k)
	}
	return out
}

// ParseApproxKind converts a name ("countmin", "spacesaving", "hll",
// "reservoir", "chain", "priority") into an ApproxKind, wrapping
// ErrBadConfig on unknown names.
func ParseApproxKind(name string) (ApproxKind, error) {
	k, err := approx.ParseKind(name)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	return ApproxKind(k), nil
}

// ApproxQuery configures the approximate tier in a Config. The zero
// value disables it; a non-empty Kind enables it with zero sizing
// fields taking the defaults (K 32, Depth 4, Width 2048, Precision 12,
// Seed 1). It is construction-time configuration: Reconfigure rejects
// changes, like the scheme or the batch interval.
type ApproxQuery struct {
	// Kind selects the operator.
	Kind ApproxKind
	// K is the counter budget of ApproxSpaceSaving and the sample
	// budget of the sampler kinds.
	K int
	// Depth and Width size the ApproxCountMin sketch; the advertised
	// bound is (e/Width) x window mass.
	Depth, Width int
	// Precision is ApproxHLL's register exponent (2^Precision
	// registers; relative error ~1.04/sqrt(2^Precision)).
	Precision int
	// Seed selects the deterministic hash family.
	Seed uint64
}

// spec converts the public configuration to the internal one.
func (q ApproxQuery) spec() approx.Spec {
	return approx.Spec{
		Kind:      approx.Kind(q.Kind),
		K:         q.K,
		Depth:     q.Depth,
		Width:     q.Width,
		Precision: q.Precision,
		Seed:      q.Seed,
	}
}

// WithApproxQuery enables the approximate tier with the given operator
// and the default sizing; set Config.Approx directly for custom sizing.
// The kind is validated immediately.
func WithApproxQuery(kind ApproxKind) Option {
	return func(c *Config) error {
		parsed, err := ParseApproxKind(string(kind))
		if err != nil {
			return fmt.Errorf("WithApproxQuery(%q): %w", kind, err)
		}
		c.Approx.Kind = parsed
		return nil
	}
}

// ApproxEntry is one ranked answer of an approximate top-k query: the
// estimated value and the operator's overestimation bound for the key
// (Val − Err <= true <= Val for ApproxSpaceSaving; Err is 0 for
// operators without a per-entry bound).
type ApproxEntry = approx.Entry

// HasApprox reports whether the stream runs an approximate query; when
// it does not, the Approx accessors return ErrNoApprox.
func (c *streamCore) HasApprox() bool { return c.eng.ApproxState() != nil }

// ApproxEstimate returns the primary query's approximate answer for one
// key over the current window: the estimated frequency mass for
// ApproxCountMin and ApproxSpaceSaving, the sampled mass for the
// sampler kinds (0 for keys outside the sample).
func (c *streamCore) ApproxEstimate(key string) (float64, error) {
	est := c.eng.ApproxState()
	if est == nil {
		return 0, ErrNoApprox
	}
	return est.Estimate(key), nil
}

// ApproxTopK returns the k highest-ranked window keys by approximate
// mass with per-entry error bounds. ApproxSpaceSaving and the sampler
// kinds support ranking; ApproxCountMin and ApproxHLL return nil
// entries (they keep no key list); k <= 0 asks for none.
func (c *streamCore) ApproxTopK(k int) ([]ApproxEntry, error) {
	est := c.eng.ApproxState()
	if est == nil {
		return nil, ErrNoApprox
	}
	return est.TopK(k), nil
}

// ApproxDistinct returns the approximate distinct-key count of the
// current window (ApproxHLL's estimate; the bottom-k estimator for the
// sampler kinds; the tracked-counter count for ApproxSpaceSaving; 0 for
// ApproxCountMin, which cannot count keys).
func (c *streamCore) ApproxDistinct() (float64, error) {
	est := c.eng.ApproxState()
	if est == nil {
		return 0, ErrNoApprox
	}
	return est.Distinct(), nil
}

// ApproxErrorBound returns the operator's advertised error bound for
// the current window (0 for the sampler kinds, which advertise none).
func (c *streamCore) ApproxErrorBound() (float64, error) {
	est := c.eng.ApproxState()
	if est == nil {
		return 0, ErrNoApprox
	}
	return est.ErrorBound(), nil
}
