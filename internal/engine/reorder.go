package engine

import (
	"cmp"
	"fmt"
	"slices"

	"prompt/internal/tuple"
	"prompt/internal/workload"
)

// Reorderer implements the paper's bounded-delay ordering guarantee (§8):
// tuples may arrive up to MaxDelay after their event timestamps, so a
// batch [s, e) is sealed only once every arrival up to e+MaxDelay has been
// ingested. Tuples that exceed the delay bound are counted and dropped —
// handling them belongs to revision processing, which the paper scopes
// out.
type Reorderer struct {
	// MaxDelay bounds arrival - event time; the paper suggests a small
	// percentage of the batch interval.
	MaxDelay tuple.Time

	pending  []tuple.Tuple
	sorted   int           // pending[:sorted] is already in event-time order
	scratch  []tuple.Tuple // merge buffer reused across seals
	sealed   tuple.Time    // batches released up to here
	ingested tuple.Time    // arrival horizon: all arrivals before it are in
	dropped  int
}

// NewReorderer returns a reorderer with the given delay bound.
func NewReorderer(maxDelay tuple.Time) (*Reorderer, error) {
	if maxDelay < 0 {
		return nil, fmt.Errorf("engine: negative max delay %v", maxDelay)
	}
	return &Reorderer{MaxDelay: maxDelay}, nil
}

// Dropped reports the tuples discarded for exceeding MaxDelay.
func (r *Reorderer) Dropped() int { return r.dropped }

// Pending reports the tuples buffered but not yet released.
func (r *Reorderer) Pending() int { return len(r.pending) }

// Sealed reports the watermark up to which batches have been released.
func (r *Reorderer) Sealed() tuple.Time { return r.sealed }

// Ingested reports the arrival horizon: every arrival before it has been
// fed in (or its absence observed via AdvanceWatermark).
func (r *Reorderer) Ingested() tuple.Time { return r.ingested }

// Ingest accepts one arrival. Arrivals must be fed in non-decreasing
// arrival order (the receiver sees them that way). A tuple later than
// MaxDelay past its event time, or with an event time inside an already
// sealed batch, is dropped.
func (r *Reorderer) Ingest(a workload.Arrival) bool {
	if a.At > r.ingested {
		r.ingested = a.At
	}
	if a.At-a.Tuple.TS > r.MaxDelay || a.Tuple.TS < r.sealed {
		r.dropped++
		return false
	}
	r.pending = append(r.pending, a.Tuple)
	return true
}

// AdvanceWatermark tells the reorderer that every arrival before upTo has
// been ingested (the receiver observed silence up to that point). Without
// it, only actually seen arrival times advance the horizon.
func (r *Reorderer) AdvanceWatermark(upTo tuple.Time) {
	if upTo > r.ingested {
		r.ingested = upTo
	}
}

// Seal closes the batch ending at end and returns its tuples in event-time
// order. It is the caller's responsibility to have ingested every arrival
// up to end+MaxDelay first; Seal returns an error otherwise, because a
// conforming tuple could still arrive.
func (r *Reorderer) Seal(end tuple.Time) ([]tuple.Tuple, error) {
	if end <= r.sealed {
		return nil, fmt.Errorf("engine: batch ending %v already sealed (watermark %v)", end, r.sealed)
	}
	if r.ingested < end+r.MaxDelay {
		return nil, fmt.Errorf("engine: cannot seal %v: arrivals only ingested up to %v (need %v)",
			end, r.ingested, end+r.MaxDelay)
	}
	// The tail left over from the previous seal is already sorted; only
	// the arrivals ingested since then need sorting, after which the two
	// runs merge. Ties keep ingestion order: the prefix was ingested
	// strictly before any suffix element, and the suffix sort is stable.
	if r.sorted < len(r.pending) {
		suffix := r.pending[r.sorted:]
		slices.SortStableFunc(suffix, func(a, b tuple.Tuple) int { return cmp.Compare(a.TS, b.TS) })
		if r.sorted > 0 {
			r.scratch = append(r.scratch[:0], r.pending[:r.sorted]...)
			pre := r.scratch
			i, j, k := 0, 0, 0
			// Writing at k = i+j never overtakes the suffix read cursor
			// at r.sorted+j, so merging in place over pending is safe.
			for i < len(pre) && j < len(suffix) {
				if pre[i].TS <= suffix[j].TS {
					r.pending[k] = pre[i]
					i++
				} else {
					r.pending[k] = suffix[j]
					j++
				}
				k++
			}
			for i < len(pre) {
				r.pending[k] = pre[i]
				i++
				k++
			}
			// Any remaining suffix elements are already in place.
		}
	}
	cut, _ := slices.BinarySearchFunc(r.pending, end, func(t tuple.Tuple, end tuple.Time) int {
		return cmp.Compare(t.TS, end)
	})
	out := make([]tuple.Tuple, cut)
	copy(out, r.pending[:cut])
	r.pending = append(r.pending[:0], r.pending[cut:]...)
	r.sorted = len(r.pending)
	r.sealed = end
	return out, nil
}

// RunReordered processes n consecutive batches from a jittered arrival
// stream: arrivals are ingested up to each heartbeat plus MaxDelay, the
// batch is sealed, and the engine steps. The extra MaxDelay the receiver
// waits is charged onto every batch's latency accounting implicitly — the
// batch is processed at its heartbeat as usual, mirroring the paper's
// design where the delay bound is small enough to hide in the batching
// phase.
func (e *Engine) RunReordered(src *workload.Jittered, r *Reorderer, n int) ([]BatchReport, error) {
	if r == nil || src == nil {
		return nil, fmt.Errorf("engine: reordered run needs a jittered source and a reorderer")
	}
	// The buffer drives the run, so attach it: its state joins the
	// engine's checkpoints and its drops land on the batch reports.
	e.AttachReorderer(r)
	out := make([]BatchReport, 0, n)
	// Arrivals are ingested up to here. A restored reorderer has already
	// consumed the stream past e.now (it ingested up to the last sealed
	// batch's end plus MaxDelay), so resume from its horizon — the caller
	// positions the sequential source there.
	horizon := e.now
	if h := r.Ingested(); h > horizon {
		horizon = h
	}
	for i := 0; i < n; i++ {
		start := e.now
		end := start + e.cfg.BatchInterval
		need := end + r.MaxDelay
		droppedBefore := r.Dropped()
		if need > horizon {
			arrivals, err := src.Arrivals(horizon, need)
			if err != nil {
				return out, err
			}
			for _, a := range arrivals {
				r.Ingest(a)
			}
			r.AdvanceWatermark(need)
			horizon = need
		}
		tuples, err := r.Seal(end)
		if err != nil {
			return out, err
		}
		e.NoteDropped(r.Dropped() - droppedBefore)
		rep, err := e.Step(tuples, start, end)
		if err != nil {
			return out, err
		}
		out = append(out, rep)
	}
	return out, nil
}
