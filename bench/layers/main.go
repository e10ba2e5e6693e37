// Command layers is the benchmark's traced run and layer probes. It is
// a binary of its own because it imports internal/... packages: if a
// refactor breaks it, `bench -trace 0` still builds and the six
// end-to-end metrics still print. bench builds and runs it for
// `-trace 1`; it is not meant to be started by hand.
//
// It runs the workload's phases once more with spans recorded from
// outside the engine — an Observer for the stages, a tapping transport
// around the shard sockets, timers around the state actions — then
// replays the workload's cycle through each internal layer's entry
// point, and prints every per-layer metric.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"prompt"
	"prompt/bench/harness"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to trace")
		seed     = flag.Int64("seed", 1, "generator seed")
		seconds  = flag.Int("seconds", 20, "measuring time")
		promptd  = flag.String("promptd", "", "promptd binary for sharded workloads")
		tmp      = flag.String("tmp", "", "directory for socket directories")
		outDir   = flag.String("out", "out", "directory for the Chrome trace file")
		buildS   = flag.Float64("build-s", 0, "how long bench took to build promptd (reported as driver.build_s)")
	)
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		harness.StopAllShards()
		os.Exit(130)
	}()

	w, ok := harness.WorkloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "layers: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	env := harness.Env{Promptd: *promptd, TmpRoot: *tmp}
	res, err := traced(w, *seed, float64(*seconds), env, *outDir, *buildS)
	harness.StopAllShards()
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	harness.PrintText(os.Stderr, w.Name, harness.PerLayer, res)
	if err := harness.PrintLine(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// captureBatches is how many untimed batches the tap keeps frames of.
const captureBatches = 4

// attachObserver registers the span observer on a stream already
// running, so the phases before it stay untraced.
func attachObserver(st harness.Stream, obs prompt.Observer) error {
	switch s := st.(type) {
	case *prompt.Stream:
		return s.Reconfigure(prompt.WithObserver(obs))
	case *tappedStream:
		s.eng.SetObserver(obs)
		return nil
	}
	return fmt.Errorf("cannot attach an observer to a %T", st)
}

func setDepth(st harness.Stream, depth int) error {
	switch s := st.(type) {
	case *prompt.Stream:
		return s.Reconfigure(prompt.WithPipelineDepth(depth))
	case *tappedStream:
		return s.eng.SetPipelineDepth(depth)
	}
	return fmt.Errorf("cannot set the pipeline depth of a %T", st)
}

// traced runs the workload's rounds with tracing and then the probes.
// A third of the rounds run their closed loop untraced first; then the
// observer is attached (it cannot be detached again through the public
// API) and half the rounds run traced, closed and open loop. The
// open-loop spans give the stage medians, because there one batch is in
// flight on every workload and spans nest cleanly; the closed loops give
// the allocation counters and, traced over untraced, the tracing
// overhead.
func traced(w harness.Workload, seed int64, seconds float64, env harness.Env, outDir string, buildS float64) (harness.Result, error) {
	tr := &harness.Trace{}
	build := harness.BuildPublic
	var ts *tappedStream
	if w.Shards > 0 && env.Promptd != "" {
		// Over loopback shards (the smoke test) there are no sockets to
		// tap, and the transport metrics stay 0.
		build = buildTapped(tr, &ts)
	}
	r, err := harness.Setup(w, seed, env, build)
	if err != nil {
		return harness.Result{}, err
	}
	defer r.Close()
	rounds := harness.Rounds(seconds)

	var plainMS []float64 // batch times of the untraced closed chunks
	for i := 0; i < max(1, rounds/3); i++ {
		c, err := r.Closed(w.ClosedChunk)
		if err != nil {
			return harness.Result{}, err
		}
		plainMS = append(plainMS, c.BatchMS...)
	}
	if ts != nil {
		// A few untimed batches with the tap keeping frame bytes, for
		// the codec and round-trip probes.
		ts.tap.set(false, true)
		if _, err := r.Closed(captureBatches); err != nil {
			return harness.Result{}, err
		}
		ts.tap.set(true, false)
	}
	if err := attachObserver(r.St, harness.NewSpanObserver(tr)); err != nil {
		return harness.Result{}, err
	}
	r.Trace = tr

	var withSpans harness.ClosedResult // the traced closed chunks, pooled
	var open harness.OpenResult        // the traced open chunks, pooled
	var shardCPU float64
	var spans []harness.Span // the spans recorded during the open chunks
	for i := 0; i < max(1, rounds/2); i++ {
		cpu0 := harness.CPUSeconds(r.ShardPids()...)
		c, err := r.Closed(w.ClosedChunk)
		if err != nil {
			return harness.Result{}, err
		}
		shardCPU += harness.CPUSeconds(r.ShardPids()...) - cpu0
		withSpans.Add(c)

		mark := tr.Len()
		o, err := r.Open(w.OpenChunk)
		if err != nil {
			return harness.Result{}, err
		}
		tr.Adopt("transport.exchange", "engine.process")
		spans = append(spans, rebase(tr.Spans(), mark, len(spans))...)
		open.Add(o)
	}

	vals := map[string]float64{}
	ns := map[string]int{}
	median := func(name string, xs []float64) {
		vals[name] = harness.Median(xs)
		ns[name] = len(xs)
	}
	median("engine.batch_ms_p50", harness.Durations(spans, 0, "batch"))
	for _, stage := range []string{"accumulate", "partition", "process", "commit"} {
		median("engine."+stage+"_ms_p50", harness.Durations(spans, 0, "engine."+stage))
	}
	median("engine.batch_self_ms_p50", harness.SelfTimes(spans, 0, "batch"))

	nb := float64(withSpans.Batches)
	vals["engine.allocs_per_batch"] = float64(withSpans.Mem.Mallocs) / nb
	vals["engine.alloc_kb_per_batch"] = float64(withSpans.Mem.Bytes) / 1024 / nb
	vals["engine.gc_cycles"] = float64(withSpans.Mem.GCCycles)
	vals["engine.gc_pause_ms_total"] = msOf(withSpans.Mem.GCPause)
	// The two sides ran seconds apart on a machine whose speed drifts,
	// so compare their fast tails, which drift least.
	vals["trace.overhead_share"] = harness.Percentile(withSpans.BatchMS, 10)/harness.Percentile(plainMS, 10) - 1
	vals["partition.bsi"] = withSpans.Quality.BSI
	vals["partition.bci"] = withSpans.Quality.BCI
	vals["partition.ksr"] = withSpans.Quality.KSR
	vals["reducer.bucket_bsi"] = withSpans.BucketBSI
	vals["approx.bytes"] = float64(withSpans.Approx)

	if ts != nil {
		ex := harness.Durations(spans, 0, "transport.exchange")
		median("transport.exchange_ms_p50", ex)
		vals["transport.exchange_ms_p95"] = harness.Percentile(ex, 95)
		ns["transport.exchange_ms_p95"] = len(ex)
		vals["transport.exchanges_per_batch"] = float64(len(ex)) / float64(open.Batches)
		self := harness.SelfTimes(spans, 0, "engine.process")
		median("dist.process_self_ms_p50", self)
		// Time the driver spent waiting on shards: the part of each
		// process stage that exchanges cover, over the batch walls.
		var waited, total float64
		for _, d := range harness.Durations(spans, 0, "engine.process") {
			waited += d
		}
		for _, d := range self {
			waited -= d
		}
		for _, d := range harness.Durations(spans, 0, "batch") {
			total += d
		}
		vals["dist.coord_wait_share"] = waited / total
		vals["dist.shard_cpu_share"] = shardCPU / withSpans.Wall.Seconds()
	}
	if w.Churn {
		all := tr.Spans()
		median("window.topk_ms_p50", harness.Durations(all, 0, "window.topk"))
		median("checkpoint.encode_ms_p50", harness.Durations(all, 0, "checkpoint.encode"))
		stalls := append(append([]float64(nil), withSpans.StallMS...), open.StallMS...)
		batches := append(append([]float64(nil), withSpans.BatchMS...), open.BatchMS...)
		vals["migrate.rescale_stall_ms_p50"] = harness.Median(stalls) - harness.Median(batches)
		ns["migrate.rescale_stall_ms_p50"] = len(stalls)
	}

	// Pipelining gain: the same closed-loop Run at depth 1 and depth 2.
	if !w.Churn {
		gainBatches := 2 * w.ClosedChunk
		rate := func(depth int) (float64, error) {
			if err := setDepth(r.St, depth); err != nil {
				return 0, err
			}
			reps, wall, err := r.RunBatches(gainBatches)
			if err != nil {
				return 0, err
			}
			return float64(len(reps)) / wall.Seconds(), nil
		}
		d1, err := rate(1)
		if err != nil {
			return harness.Result{}, err
		}
		d2, err := rate(2)
		if err != nil {
			return harness.Result{}, err
		}
		vals["engine.pipeline_depth2_gain"] = d2 / d1
	}

	vals["driver.open.start_lag_ms_p95"] = harness.Percentile(open.StartLagMS, 95)
	vals["driver.open.backlog_batches_max"] = float64(open.MaxBacklog)
	vals["driver.open.late_share"] = float64(open.Late) / float64(open.Batches)
	median("driver.restamp_ms_p50", r.RestampMS())
	vals["driver.build_s"] = buildS
	vals["dist.shards_down"] = float64(r.St.ShardsDown())

	res := harness.Result{Correct: true}
	if err := r.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "ANSWER CHECK FAILED on %s (traced run): %v\n", w.Name, err)
		res.Correct = false
	}
	res.Attempted, res.Failed = r.Attempted, r.Failed
	if !res.Correct {
		res.Failed = res.Attempted
	}
	vals["migrate.slots_moved"] = float64(r.Migrations())
	if w.Churn {
		vals["checkpoint.bytes"] = float64(r.CheckpointBytes)
		vals["checkpoint.restore_ms"] = msOf(r.RestoreTime)
	}
	var frames []capture
	if ts != nil {
		frames = ts.tap.frames
	}
	r.Close() // the probes run with the stream and its shards gone

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	tracePath := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", w.Name, seed))
	if err := tr.WriteChrome(tracePath); err != nil {
		return res, err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", tr.Len(), tracePath)

	p := &probes{w: w, cycle: r.Cycle, vals: vals}
	if err := p.ingest(); err != nil {
		return res, fmt.Errorf("ingest probes: %w", err)
	}
	if err := p.state(); err != nil {
		return res, fmt.Errorf("state probes: %w", err)
	}
	if err := p.wireCodec(frames, captureBatches); err != nil {
		return res, fmt.Errorf("wire probes: %w", err)
	}
	if err := p.rtt(frames, env.TmpRoot); err != nil {
		return res, fmt.Errorf("round-trip probes: %w", err)
	}
	p.ringProbe()

	res.Metrics = harness.Fill(harness.PerLayer, vals, ns)
	return res, nil
}

// rebase returns all[from:] with parent indexes shifted so that they
// index into a slice in which these spans start at position at; parents
// outside the range become -1.
func rebase(all []harness.Span, from, at int) []harness.Span {
	out := append([]harness.Span(nil), all[from:]...)
	for i := range out {
		if out[i].Parent >= from {
			out[i].Parent += at - from
		} else {
			out[i].Parent = -1
		}
	}
	return out
}
