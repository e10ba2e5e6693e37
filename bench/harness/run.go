package harness

import (
	"fmt"
	"io"
	"runtime"
	"sort"
)

// setupReps is how many times a run sets up from scratch; setup_s is the
// median, and the phases run on the last stream built.
const setupReps = 3

// roundSeconds is the nominal length of one round: a closed-loop chunk
// sized to about 0.75 s and an open-loop chunk of 20 intervals.
const roundSeconds = 2.75

// Rounds is how many rounds a run of the given measuring time makes.
func Rounds(seconds float64) int {
	return max(1, int(seconds/roundSeconds+0.5))
}

// Quiet picks, from one value per round, the value of the round at the
// best quartile: the lower quartile of a cost, the upper quartile of a
// rate (rank ceil(n/4) from the best, so the second best of eight).
//
// Every timing of a run is computed per round and reported this way.
// The machine this benchmark was built on slows by up to 1.8x for
// seconds at a time, all stages alike, when other tenants of the host
// are busy. That interference only ever makes a round worse, so the
// quiet quartile estimates what the code costs, ignores the odd round
// slow enough to overload the open loop, and still moves when the code
// gets slower.
func Quiet(perRound []float64, better string) float64 {
	if len(perRound) == 0 {
		return 0
	}
	s := append([]float64(nil), perRound...)
	sort.Float64s(s)
	if better == "higher" {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	return s[(len(s)+3)/4-1]
}

// SetupMedian sets the workload up setupReps times, tearing all but the
// last down again, and returns the last runner and the median set-up
// time in seconds.
func SetupMedian(w Workload, seed int64, env Env, build BuildFunc) (*Runner, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		r, err := Setup(w, seed, env, build)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, r.SetupTime.Seconds())
		if i == setupReps-1 {
			return r, Median(times), nil
		}
		r.Close()
		runtime.GC()
	}
}

// Samples holds a run's per-round values of the end-to-end metrics, so
// that a suite can pool the rounds of several repetitions.
type Samples map[string][]float64

// RunEndToEnd is one untraced run of a workload: set-up, then rounds of
// a closed-loop chunk followed by an open-loop chunk, then the answer
// check. Interleaving the two loops spreads both over the whole run, so
// a slow spell of the machine cannot fall on one of them alone. It
// returns the six end-to-end metrics; log receives a text report that
// includes the driver's own validity numbers. A failed answer check is
// reported in the Result (Correct false, every operation failed), not
// as an error.
func RunEndToEnd(w Workload, seed int64, seconds float64, env Env, log io.Writer) (Result, Samples, error) {
	r, setup, err := SetupMedian(w, seed, env, BuildPublic)
	if err != nil {
		return Result{}, nil, err
	}
	defer r.Close()

	rounds := Rounds(seconds)
	per := Samples{}
	var allClosed ClosedResult
	var allOpen OpenResult
	for i := 0; i < rounds; i++ {
		closed, err := r.Closed(w.ClosedChunk)
		if err != nil {
			return Result{}, nil, err
		}
		open, err := r.Open(w.OpenChunk)
		if err != nil {
			return Result{}, nil, err
		}
		per["tuples_per_s"] = append(per["tuples_per_s"], float64(closed.Tuples)/closed.Wall.Seconds())
		per["cpu_us_per_tuple"] = append(per["cpu_us_per_tuple"], closed.CPU*1e6/float64(closed.Tuples))
		per["delay_ms_p50"] = append(per["delay_ms_p50"], Median(open.DelayMS))
		per["delay_ms_p95"] = append(per["delay_ms_p95"], Percentile(open.DelayMS, 95))
		allClosed.Add(closed)
		allOpen.Add(open)
	}
	// Read the high-water mark before the answer check: the reference
	// maps and the restored stream are the benchmark's memory, not the
	// engine's.
	rss := PeakRSSMB(r.Pids()...)

	res := Result{Correct: true, Attempted: r.Attempted, Failed: r.Failed}
	if err := r.Check(); err != nil {
		fmt.Fprintf(log, "ANSWER CHECK FAILED on %s: %v\n", w.Name, err)
		res.Correct, res.Failed = false, res.Attempted
	}
	vals := map[string]float64{"setup_s": setup, "peak_rss_mb": rss}
	ns := map[string]int{"setup_s": setupReps, "peak_rss_mb": len(r.Pids())}
	for _, m := range EndToEnd {
		if xs, ok := per[m.Name]; ok {
			vals[m.Name] = Quiet(xs, m.Better)
			ns[m.Name] = len(xs)
		}
	}
	res.Metrics = Fill(EndToEnd, vals, ns)
	PrintText(log, w.Name, EndToEnd, res)
	fmt.Fprintf(log, "  %d rounds of %d closed + %d open batches; n counts rounds, and each value is the quiet-quartile round's\n", rounds, w.ClosedChunk, w.OpenChunk)
	fmt.Fprintf(log, "  driver.open.late_share=%.3f driver.open.start_lag_ms_p95=%.3f driver.open.backlog_batches_max=%d driver.restamp_ms_p50=%.3f closed_batch_ms_p50=%.3f\n",
		float64(allOpen.Late)/float64(allOpen.Batches), Percentile(allOpen.StartLagMS, 95), allOpen.MaxBacklog, Median(r.RestampMS()), Median(allClosed.BatchMS))
	return res, per, nil
}
