package approx

import (
	"fmt"
	"sort"

	"prompt/internal/tuple"
)

// partial is one batch's summary while the batch is inside the window —
// the approximate mirror of window.batchOutput. Exactly one of the
// pointers is set, matching the estimator's kind.
type partial struct {
	end  tuple.Time
	cm   *CountMin
	ss   *SpaceSaving
	hll  *HLL
	samp *Sample
}

// Estimator is the windowed shell around one approximate operator: it
// folds each committed batch's exact per-key result into a bounded
// partial summary, retains the partials that are still inside the window
// (the same retention rule as window.Aggregator), and serves queries from
// the merged summary of the live partials.
//
// The merged summary is rebuilt by folding the live partials in deque
// order after every AddBatch. Rebuilding — rather than merging in and
// subtracting out — is what makes the state bit-identical to a decoded
// checkpoint, which replays exactly the same fold; floating-point
// subtraction would not be (see CountMin.Sub).
type Estimator struct {
	spec Spec // defaults applied
	win  tuple.Time

	parts []partial

	cm   *CountMin
	ss   *SpaceSaving
	hll  *HLL
	samp *Sample
}

// NewEstimator builds an estimator for the given window length (use the
// batch interval for windowless queries — each batch then replaces the
// summary).
func NewEstimator(spec Spec, win tuple.Time) (*Estimator, error) {
	if !spec.Enabled() {
		return nil, fmt.Errorf("approx: estimator needs an operator kind")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if win <= 0 {
		return nil, fmt.Errorf("approx: window must be positive, got %v", win)
	}
	e := &Estimator{spec: spec.WithDefaults(), win: win}
	e.rebuild()
	return e, nil
}

// Spec returns the estimator's resolved spec.
func (e *Estimator) Spec() Spec { return e.spec }

// Kind returns the operator kind.
func (e *Estimator) Kind() Kind { return e.spec.Kind }

// Window returns the window length.
func (e *Estimator) Window() tuple.Time { return e.win }

// AddBatch folds one committed batch's exact per-key result into the
// window. Batch ends must be non-decreasing, mirroring the aggregator.
func (e *Estimator) AddBatch(end tuple.Time, result map[string]float64) error {
	if n := len(e.parts); n > 0 && end < e.parts[n-1].end {
		return fmt.Errorf("approx: batch end %v precedes previous %v", end, e.parts[n-1].end)
	}
	e.parts = append(e.parts, e.buildPartial(end, result))
	cutoff := end - e.win
	i := 0
	for i < len(e.parts) && e.parts[i].end <= cutoff {
		i++
	}
	e.parts = e.parts[i:]
	e.rebuild()
	return nil
}

// buildPartial summarizes one batch output under the estimator's kind,
// folding keys in the canonical sorted order.
func (e *Estimator) buildPartial(end tuple.Time, result map[string]float64) partial {
	p := partial{end: end}
	keys := sortedKeys(result)
	switch e.spec.Kind {
	case CountMinKind:
		p.cm = NewCountMin(e.spec.Depth, e.spec.Width, e.spec.Seed)
		for _, k := range keys {
			p.cm.Add(k, result[k])
		}
	case SpaceSavingKind:
		p.ss = NewSpaceSaving(e.spec.K)
		// Offer heavy keys first (value desc, key asc): a static batch
		// folds into a partial whose top counters are exact.
		ranked := append([]string(nil), keys...)
		sortRanked(ranked, result)
		for _, k := range ranked {
			p.ss.Offer(k, result[k])
		}
	case HLLKind:
		p.hll = NewHLL(e.spec.Precision, e.spec.Seed)
		for _, k := range keys {
			p.hll.Add(k)
		}
	default: // samplers
		salt := uint64(0)
		if e.spec.Kind == ChainKind {
			salt = uint64(end)
		}
		p.samp = NewSample(e.spec.Kind, e.spec.K, e.spec.Seed, salt)
		for _, k := range keys {
			p.samp.Offer(k, result[k])
		}
		p.samp.Trim()
	}
	return p
}

// sortRanked orders keys by (value desc, key asc).
func sortRanked(keys []string, result map[string]float64) {
	sort.Slice(keys, func(i, j int) bool {
		return ssLess(keys[i], result[keys[i]], keys[j], result[keys[j]])
	})
}

// rebuild folds the live partials in deque order into the merged view.
func (e *Estimator) rebuild() {
	e.cm, e.ss, e.hll, e.samp = nil, nil, nil, nil
	switch e.spec.Kind {
	case CountMinKind:
		e.cm = NewCountMin(e.spec.Depth, e.spec.Width, e.spec.Seed)
		for _, p := range e.parts {
			// Merge of compatible sketches cannot fail; partials share
			// the estimator's geometry by construction.
			_ = e.cm.Merge(p.cm)
		}
	case SpaceSavingKind:
		e.ss = NewSpaceSaving(e.spec.K)
		for _, p := range e.parts {
			e.ss = MergeSpaceSaving(e.ss, p.ss)
		}
	case HLLKind:
		e.hll = NewHLL(e.spec.Precision, e.spec.Seed)
		for _, p := range e.parts {
			_ = e.hll.Merge(p.hll)
		}
	default:
		e.samp = NewSample(e.spec.Kind, e.spec.K, e.spec.Seed, 0)
		for _, p := range e.parts {
			merged, err := MergeSample(e.samp, p.samp)
			if err == nil {
				e.samp = merged
			}
		}
	}
}

// Estimate answers a point-frequency query over the current window.
func (e *Estimator) Estimate(key string) float64 {
	switch e.spec.Kind {
	case CountMinKind:
		return e.cm.Estimate(key)
	case SpaceSavingKind:
		return e.ss.Estimate(key)
	case HLLKind:
		return 0 // HLL answers Distinct, not point queries
	default:
		return e.samp.Estimate(key)
	}
}

// TopK answers a heavy-hitter query over the current window. Count-Min
// and HLL have no key inventory, so only Space-Saving and the samplers
// return entries; k <= 0 asks for none.
func (e *Estimator) TopK(k int) []Entry {
	k = max(k, 0)
	switch e.spec.Kind {
	case SpaceSavingKind:
		entries := e.ss.Entries()
		if k < len(entries) {
			entries = entries[:k]
		}
		out := make([]Entry, len(entries))
		for i, se := range entries {
			out[i] = Entry{Key: se.Key, Val: se.Est, Err: se.Err}
		}
		return out
	case CountMinKind, HLLKind:
		return nil
	default:
		return e.samp.TopK(k)
	}
}

// Distinct answers a distinct-count query over the current window.
func (e *Estimator) Distinct() float64 {
	switch e.spec.Kind {
	case HLLKind:
		return e.hll.Estimate()
	case SpaceSavingKind:
		return float64(len(e.ss.counts))
	case CountMinKind:
		return 0
	default:
		return e.samp.Distinct()
	}
}

// ErrorBound is the operator's advertised bound for its primary answer:
// absolute overestimation mass for Count-Min and Space-Saving, absolute
// distinct-count error for HLL, zero for the samplers (ranked only
// empirically — see cmd/samplebench).
func (e *Estimator) ErrorBound() float64 {
	switch e.spec.Kind {
	case CountMinKind:
		return e.cm.ErrorBound()
	case SpaceSavingKind:
		return e.ss.ErrorBound()
	case HLLKind:
		return e.hll.ErrorBound()
	default:
		return 0
	}
}

// Bytes approximates the tier's current memory footprint: the merged
// summary plus the retained window partials.
func (e *Estimator) Bytes() int {
	n := 0
	switch e.spec.Kind {
	case CountMinKind:
		n = e.cm.Bytes()
		for _, p := range e.parts {
			n += p.cm.Bytes()
		}
	case SpaceSavingKind:
		n = e.ss.Bytes()
		for _, p := range e.parts {
			n += p.ss.Bytes()
		}
	case HLLKind:
		n = e.hll.Bytes()
		for _, p := range e.parts {
			n += p.hll.Bytes()
		}
	default:
		n = e.samp.Bytes()
		for _, p := range e.parts {
			n += p.samp.Bytes()
		}
	}
	return n
}
