// Package check is the seeded metamorphic + differential stress harness:
// it generates random end-to-end scenarios — workload skew, arrival
// jitter, partitioning scheme, worker count, fault plans, window specs
// including non-invertible reduces, mid-run checkpoint/restore, AIMD
// throttling, reorder-buffer delays — and cross-checks the invariants the
// fixed golden tests cannot reach:
//
//  1. every registered scheme produces the same window answers,
//  2. checkpoint/restore at any batch boundary equals the uninterrupted
//     run bit for bit (reports, window answers, reorder-buffer contents,
//     back-pressure factor),
//  3. incrementally maintained window state equals Recompute() after
//     every eviction,
//  4. a faulted run's window answers equal the fault-free run's,
//  5. window answers are invariant under tuple permutation within a
//     batch,
//  6. execution scattered over a shard cluster (loopback and pipe
//     transports) equals the in-process run bit for bit,
//  7. retired: it compared columnar with row ingestion, and the engine now
//     has one data plane (rows exist only at the edge, transposed once),
//     so there is no second ingest path to compare,
//  8. a run whose key-range owner count changes mid-stream (live
//     rescaling with state migration, in-process and over loopback/pipe
//     shard clusters) equals the static run bit for bit,
//  9. inter-batch pipelining at depths 2 and 3 (in-process and over
//     loopback/pipe shard clusters) equals the classic depth-1 run bit
//     for bit,
//  10. the approximate tier's summary state is bit-identical after every
//     batch across worker counts and a mid-run checkpoint/restore, and
//     its final answers stay inside the operator's advertised error
//     bounds of the exact window.
//
// A failing scenario prints its seed plus a shrunk minimal scenario that
// still fails; PROMPT_CHECK_SEED replays one seed deterministically and
// PROMPT_CHECK_SEEDS ("a..b" or a comma list) selects the sweep.
package check

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"prompt/internal/approx"
	"prompt/internal/core"
)

// Scenario is one generated stress configuration. Every field is derived
// deterministically from Seed by Generate, so the seed alone replays the
// scenario; Shrink mutates the other fields directly while keeping the
// seed (the workload generator key) fixed.
type Scenario struct {
	// Seed drives workload generation, jitter, fault plans, and the
	// permutation of invariant 5.
	Seed int64
	// Batches is the run length; CheckpointAt in [1, Batches-1] is the
	// batch boundary the mid-run checkpoint/restore happens at.
	Batches      int
	CheckpointAt int
	// Rate (tuples/second) and Keys (cardinality) shape the workload;
	// Skew is "uniform" or "zipf".
	Rate float64
	Keys int
	Skew string
	// Scheme is the registry name driving the full-stack checkpoint run;
	// invariant 1 additionally sweeps every registered scheme.
	Scheme string
	// Workers is the real-goroutine count of the full-stack run (0, 1, or
	// 4); reports must not depend on it.
	Workers int
	// WindowSec is the sliding window length in seconds (slide one
	// second); NonInvertible selects a Max-reduce query, forcing the
	// recompute-on-evict path.
	WindowSec     int
	NonInvertible bool
	// FaultEvents sizes the random fault plan (0 = fault-free).
	FaultEvents int
	// JitterMS delays arrivals by up to that many milliseconds;
	// MaxDelayMS is the reorder buffer's bound. MaxDelayMS < JitterMS
	// forces drops.
	JitterMS   int
	MaxDelayMS int
	// Throttle attaches an AIMD controller whose factor scales the
	// offered rate, observed after every batch.
	Throttle bool
	// ScaleEvents scripts live rescales for invariant 8: after batch
	// AtBatch commits, the run asks for Owners key-range owners and the
	// migration machinery hands the affected window state off at the next
	// batch boundary. Reports and windows must stay bit-identical to the
	// static run. Empty = static.
	ScaleEvents []ScaleEvent
	// Approx names the approximate operator invariant 10 runs next to the
	// exact query (empty = tier off). It also rides the full-stack
	// checkpoint differential of invariant 2, so the restored summary is
	// stressed under jitter, throttling, and faults.
	Approx string
}

// ScaleEvent is one scripted elastic rescale; see Scenario.ScaleEvents.
type ScaleEvent struct {
	AtBatch int // rescale requested after this batch commits
	Owners  int // requested key-range owner count
}

// Generate derives a scenario from a seed. Identical seeds yield
// identical scenarios.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	names := core.Names()
	sc := Scenario{
		Seed:          seed,
		Batches:       4 + rng.Intn(5), // 4..8
		Rate:          800 + 200*float64(rng.Intn(8)),
		Keys:          20 + rng.Intn(81),
		Skew:          [2]string{"uniform", "zipf"}[rng.Intn(2)],
		Scheme:        names[rng.Intn(len(names))],
		Workers:       [3]int{0, 1, 4}[rng.Intn(3)],
		WindowSec:     2 + rng.Intn(4), // 2..5
		NonInvertible: rng.Intn(3) == 0,
		FaultEvents:   rng.Intn(4), // 0..3
		JitterMS:      50 * rng.Intn(7),
		Throttle:      rng.Intn(2) == 0,
	}
	// This draw used to pick the retired row-or-columnar ingest mode; it
	// stays so every later field keeps its historical value per seed
	// (replay stability of PROMPT_CHECK_SEED).
	_ = rng.Intn(2)
	sc.CheckpointAt = 1 + rng.Intn(sc.Batches-1)
	// Usually generous enough to keep everything; sometimes tighter than
	// the jitter, so the run drops tuples.
	sc.MaxDelayMS = 50 * rng.Intn(7)
	// Scale events draw last so every pre-elasticity seed keeps its
	// historical field values (replay stability of PROMPT_CHECK_SEED).
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		sc.ScaleEvents = append(sc.ScaleEvents, ScaleEvent{
			AtBatch: rng.Intn(sc.Batches - 1),
			Owners:  1 + rng.Intn(4),
		})
	}
	// The approx operator draws last, after the scale events, so every
	// pre-approx seed keeps its historical field values (replay stability
	// of PROMPT_CHECK_SEED).
	kinds := approx.Kinds()
	sc.Approx = string(kinds[rng.Intn(len(kinds))])
	return sc
}

// String renders the scenario compactly, one field per token, so a
// failure report is self-describing and diffable against the shrunk form.
func (sc Scenario) String() string {
	scale := make([]string, len(sc.ScaleEvents))
	for i, ev := range sc.ScaleEvents {
		scale[i] = fmt.Sprintf("%d:%d", ev.AtBatch, ev.Owners)
	}
	return fmt.Sprintf("seed=%d batches=%d ckpt@%d rate=%g keys=%d skew=%s scheme=%s "+
		"workers=%d window=%ds noninv=%v faults=%d jitter=%dms maxdelay=%dms throttle=%v scale=[%s] approx=%s",
		sc.Seed, sc.Batches, sc.CheckpointAt, sc.Rate, sc.Keys, sc.Skew, sc.Scheme,
		sc.Workers, sc.WindowSec, sc.NonInvertible, sc.FaultEvents,
		sc.JitterMS, sc.MaxDelayMS, sc.Throttle, strings.Join(scale, ","), sc.Approx)
}

// seedsFromEnv resolves the seed sweep: PROMPT_CHECK_SEED pins a single
// seed (replay), PROMPT_CHECK_SEEDS selects a list ("1,5,9") or an
// inclusive range ("1..20"), and the default sweep is 1..50.
func seedsFromEnv() ([]int64, error) {
	if v := os.Getenv("PROMPT_CHECK_SEED"); v != "" {
		s, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("check: bad PROMPT_CHECK_SEED %q: %w", v, err)
		}
		return []int64{s}, nil
	}
	v := os.Getenv("PROMPT_CHECK_SEEDS")
	if v == "" {
		v = "1..50"
	}
	if lo, hi, ok := strings.Cut(v, ".."); ok {
		a, err := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("check: bad PROMPT_CHECK_SEEDS range %q: %w", v, err)
		}
		b, err := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("check: bad PROMPT_CHECK_SEEDS range %q: %w", v, err)
		}
		if b < a {
			return nil, fmt.Errorf("check: empty PROMPT_CHECK_SEEDS range %q", v)
		}
		out := make([]int64, 0, b-a+1)
		for s := a; s <= b; s++ {
			out = append(out, s)
		}
		return out, nil
	}
	var out []int64
	for _, f := range strings.Split(v, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("check: bad PROMPT_CHECK_SEEDS entry %q: %w", f, err)
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("check: PROMPT_CHECK_SEEDS %q selects no seeds", v)
	}
	return out, nil
}
