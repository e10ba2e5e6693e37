// Command promptsim runs a single micro-batch streaming simulation with a
// chosen partitioning scheme and prints the per-batch reports — a quick
// way to watch stability, queueing, and partitioning quality evolve:
//
//	promptsim -scheme prompt -dataset tweets -rate 200000 -batches 20
//	promptsim -scheme time -rate-shape sin -amplitude 0.6
//	promptsim -scheme prompt -elastic -rate-shape ramp -rate 50000 -rate-to 400000
//	promptsim -scheme prompt -faults "kill@3:cores=2,after=40ms;lose@7:fails=1"
//	promptsim -scheme prompt -fault-seed 5
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"prompt/internal/cluster"
	"prompt/internal/core"
	"prompt/internal/elastic"
	"prompt/internal/engine"
	"prompt/internal/experiment"
	"prompt/internal/fault"
	"prompt/internal/metrics"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

func main() {
	var (
		schemeName  = flag.String("scheme", "prompt", "partitioning scheme: prompt|prompt-postsort|time|shuffle|hash|pk2|pk5|cam|ffd|fragmin")
		dataset     = flag.String("dataset", "tweets", "dataset generator")
		rate        = flag.Float64("rate", 200_000, "base arrival rate (tuples/s)")
		rateTo      = flag.Float64("rate-to", 0, "final rate for -rate-shape ramp (default 2x base)")
		rateShape   = flag.String("rate-shape", "const", "rate shape: const|sin|ramp")
		amplitude   = flag.Float64("amplitude", 0.5, "sinusoidal amplitude as a fraction of the base rate")
		z           = flag.Float64("z", 1.0, "Zipf exponent for synd")
		cardinality = flag.Int("cardinality", 50_000, "key universe size")
		batches     = flag.Int("batches", 20, "number of batches")
		intervalMs  = flag.Int("interval-ms", 1000, "batch interval (milliseconds)")
		mapTasks    = flag.Int("p", 8, "map tasks (blocks)")
		reduceTasks = flag.Int("r", 8, "reduce tasks (buckets)")
		cores       = flag.Int("cores", 8, "simulated cores")
		workers     = flag.Int("workers", 0, "real worker goroutines (0 = single-goroutine driver, -1 = GOMAXPROCS)")
		pipeline    = flag.Int("pipeline", 1, "inter-batch pipeline depth: overlap up to N consecutive batches (answers unchanged, wall-clock only)")
		elasticOn   = flag.Bool("elastic", false, "enable the auto-scale controller (Algorithm 4)")
		elasticPol  = flag.String("elastic-policy", "threshold", "auto-scale policy with -elastic: "+strings.Join(elastic.Names(), "|"))
		seed        = flag.Int64("seed", 1, "workload seed")
		input       = flag.String("input", "", "replay a recorded CSV trace (streamgen format) instead of generating")
		csvOut      = flag.String("csv", "", "also write the per-batch reports as CSV to this file")
		trace       = flag.Bool("trace", false, "attach the per-stage lifecycle collector and print stage timings")
		traceJSON   = flag.String("trace-json", "", "with -trace, also write the collector snapshot as JSON to this file")
		faults      = flag.String("faults", "", "fault plan script, e.g. \"kill@3:cores=2,after=40ms;straggle@5:factor=8;lose@7:fails=1\"")
		faultSeed   = flag.Int64("fault-seed", 0, "generate a random fault plan from this seed (ignored with -faults)")
		jitterMS    = flag.Int("jitter-ms", 0, "delay arrivals by up to this many milliseconds (out-of-order delivery)")
		maxDelayMS  = flag.Int("max-delay-ms", 0, "reorder-buffer delay bound in milliseconds; arrivals later than this are dropped")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file at exit (pprof format)")
	)
	flag.Parse()

	// Profiles are written on a clean exit only; a fatal error abandons
	// them, matching the go test -cpuprofile contract.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote CPU profile to %s\n", *cpuprofile)
		}()
	}
	if *memprofile != "" {
		defer func() {
			runtime.GC() // materialize the retained heap before snapshotting
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote heap profile to %s\n", *memprofile)
		}()
	}

	interval := tuple.Time(*intervalMs) * tuple.Millisecond
	horizon := tuple.Time(*batches) * interval

	var shape workload.RateShape
	switch *rateShape {
	case "const":
		shape = workload.ConstantRate(*rate)
	case "sin":
		shape = workload.SinusoidalRate{Base: *rate, Amplitude: *amplitude * *rate, Period: 8 * interval}
	case "ramp":
		to := *rateTo
		if to == 0 {
			to = 2 * *rate
		}
		shape = workload.RampRate{From: *rate, To: to, Start: 0, End: horizon}
	default:
		fatal(fmt.Errorf("unknown rate shape %q", *rateShape))
	}

	var src workload.Stream
	srcName := *dataset
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fatal(err)
		}
		trace, err := workload.ReadTrace(*input, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if span := int(trace.Span() / interval); *batches > span && span > 0 {
			*batches = span
		}
		src = trace
		srcName = "trace:" + *input
	} else {
		gen, err := workload.ByName(*dataset, shape, *z,
			workload.DatasetDefaults{Cardinality: *cardinality, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		src = gen
	}

	scheme, err := core.ByName(*schemeName)
	if err != nil {
		fatal(err)
	}

	params := experiment.Default()
	cfg := engine.Config{
		BatchInterval: interval,
		MapTasks:      *mapTasks,
		ReduceTasks:   *reduceTasks,
		Cores:         *cores,
		Workers:       *workers,
		PipelineDepth: *pipeline,
		Cost:          params.Cost,
	}
	cfg = scheme.Apply(cfg)
	var plan *fault.Plan
	switch {
	case *faults != "":
		p, err := fault.ParsePlan(*faults)
		if err != nil {
			fatal(err)
		}
		plan = p
	case *faultSeed != 0:
		plan = fault.RandomPlan(*faultSeed, *batches, 4)
		fmt.Printf("fault plan (seed %d): %s\n", *faultSeed, plan)
	}
	cfg.Faults = plan
	var col *metrics.Collector
	if *trace {
		col = metrics.NewCollector()
		cfg.Observer = col
	}
	eng, err := engine.New(cfg, engine.Query{Name: "wordcount", Map: engine.CountMap, Reduce: window.Sum})
	if err != nil {
		fatal(err)
	}

	reordered := *jitterMS > 0 || *maxDelayMS > 0
	var reports []engine.BatchReport
	runStart := time.Now()
	switch {
	case reordered && *elasticOn:
		fatal(fmt.Errorf("-jitter-ms/-max-delay-ms cannot be combined with -elastic"))
	case *pipeline > 1 && (reordered || *elasticOn):
		// Both modes consume per-batch feedback (the reorder horizon, the
		// controller's decision) before admitting the next batch, so they
		// run one batch at a time by construction.
		fatal(fmt.Errorf("-pipeline > 1 cannot be combined with -elastic or -jitter-ms/-max-delay-ms"))
	case reordered:
		jit, err := workload.NewJittered(src, tuple.Time(*jitterMS)*tuple.Millisecond, *seed+1)
		if err != nil {
			fatal(err)
		}
		reord, err := engine.NewReorderer(tuple.Time(*maxDelayMS) * tuple.Millisecond)
		if err != nil {
			fatal(err)
		}
		reports, err = eng.RunReordered(jit, reord, *batches)
		if err != nil {
			fatal(err)
		}
	case *elasticOn:
		ctrl, err := elastic.New(*elasticPol, elastic.DefaultConfig(), cfg.Cost, cfg.BatchInterval, *mapTasks, *reduceTasks)
		if err != nil {
			fatal(err)
		}
		pool, err := cluster.NewExecutorPool(*cores*4, 2, (*cores+1)/2)
		if err != nil {
			fatal(err)
		}
		driver, err := core.NewElasticDriver(eng, ctrl, pool)
		if err != nil {
			fatal(err)
		}
		reports, err = driver.RunBatches(src, *batches)
		if err != nil {
			fatal(err)
		}
	default:
		reports, err = eng.RunBatches(src, *batches)
		if err != nil {
			fatal(err)
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "scheme=%s dataset=%s interval=%v\n", scheme.Name, srcName, interval)
	header := "batch\ttuples\tkeys\tproc(ms)\twait(ms)\tW\tp\tr\tcores\tBSI\tBCI\tKSR\tstable"
	if reordered {
		header += "\tdrops"
	}
	if plan != nil {
		header += "\tretry\trecov(ms)"
	}
	fmt.Fprintln(tw, header)
	for _, r := range reports {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\t%.1f\t%.2f\t%d\t%d\t%d\t%.0f\t%.0f\t%.3f\t%v",
			r.Index, r.Tuples, r.Keys,
			float64(r.ProcessingTime)/1000, float64(r.QueueWait)/1000, r.W,
			r.MapTasks, r.ReduceTasks, r.Cores,
			r.Quality.BSI, r.Quality.BCI, r.Quality.KSR, r.Stable)
		if reordered {
			fmt.Fprintf(tw, "\t%d", r.TuplesDropped)
		}
		if plan != nil {
			fmt.Fprintf(tw, "\t%d\t%.1f", r.TaskRetries, float64(r.RecoveryTime)/1000)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	s := engine.Summarize(reports)
	fmt.Printf("\nsummary: %d batches, %d tuples, throughput %.0f/s, mean proc %v, max latency %v, unstable %d\n",
		s.Batches, s.Tuples, s.Throughput, s.MeanProcessing, s.MaxLatency, s.UnstableCount)
	if wall := time.Since(runStart); wall > 0 && len(reports) > 0 {
		fmt.Printf("pipeline: depth %d, wall %v, sustained %.1f batches/s\n",
			*pipeline, wall.Round(time.Millisecond), float64(len(reports))/wall.Seconds())
	}
	if reordered {
		fmt.Printf("reorder: %d tuples dropped beyond the %dms delay bound\n", s.TuplesDropped, *maxDelayMS)
	}
	if plan != nil {
		var retries, recoveries, coresLost int
		var recTime tuple.Time
		for _, r := range reports {
			retries += r.TaskRetries
			if r.RecoveryAttempts > 0 {
				recoveries++
			}
			recTime += r.RecoveryTime
			coresLost = r.CoresLost
		}
		fmt.Printf("faults: %d task retries, %d batch outputs recovered (%v simulated recovery), %d cores still down\n",
			retries, recoveries, recTime, coresLost)
	}

	if col != nil {
		fmt.Println("\nper-stage lifecycle timings (wall = host time, sim = virtual time):")
		tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "stage\tbatches\twall min\twall mean\twall max\tsim min\tsim mean\tsim max")
		for _, st := range col.Snapshot() {
			fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t%v\t%v\t%v\n",
				st.Stage, st.Count, st.WallMin, st.WallMean, st.WallMax,
				st.SimMin, st.SimMean, st.SimMax)
		}
		tw.Flush()
		if *traceJSON != "" {
			f, err := os.Create(*traceJSON)
			if err != nil {
				fatal(err)
			}
			if err := col.WriteJSON(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote per-stage trace JSON to %s\n", *traceJSON)
		}
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		if err := engine.WriteReportsCSV(f, reports); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote per-batch CSV to %s\n", *csvOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "promptsim:", err)
	os.Exit(1)
}
