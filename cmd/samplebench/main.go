// Command samplebench ranks the approximate operators (Count-Min,
// Space-Saving, HyperLogLog, and the reservoir/chain/priority window
// samplers) against the exact engine answer over the synthetic workload
// generators, in the style of Gáspár et al.'s sampling-algorithm
// benchmarking framework: every (generator, operator) pair runs the same
// seeded stream through the real engine with the approximate tier
// enabled, and the leaderboard scores accuracy (operator-specific error
// vs. the exact window of the very same run), memory (summary footprint),
// and speed (wall-clock ns per tuple).
//
// Accuracy and memory are deterministic for a seed, so the ranking —
// error ascending, then bytes, then name — is reproducible anywhere;
// ns/op is measured and reported but deliberately excluded from the rank
// order.
//
//	samplebench -generators zipf0.8,hotset,burst -format json
//	samplebench -seconds 4 -format csv -o leaderboard.csv
//
// TestSmokeMatchesBaseline pins the error and footprint of a small
// three-generator run, so an accuracy regression fails `go test`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"prompt/internal/approx"
	"prompt/internal/engine"
	"prompt/internal/tuple"
	"prompt/internal/window"
	"prompt/internal/workload"
)

// params configures one leaderboard run.
type params struct {
	Seconds    int
	Rate       float64
	Keys       int
	WindowSec  int
	Seed       int64
	Generators []string
}

// generatorNames is the full sweep in canonical order: two points of the
// Zipf z-sweep, an adversarial hot set, a cardinality drift, and a rate
// burst.
var generatorNames = []string{"zipf0.8", "zipf2.0", "hotset", "drift", "burst"}

// Row is one (generator, operator) measurement.
type Row struct {
	Generator string `json:"generator"`
	Operator  string `json:"operator"`
	// Error is the operator-specific accuracy error against the exact
	// window of the same run: mean relative point-query error for
	// countmin, 1 − recall@10 for spacesaving and the samplers, relative
	// distinct-count error for hll. Deterministic for a seed.
	Error float64 `json:"error"`
	// Bytes is the summary's memory footprint after the run.
	Bytes int `json:"bytes"`
	// NsPerOp is measured wall-clock time per input tuple; informational
	// only (not part of the ranking).
	NsPerOp float64 `json:"ns_per_op"`
	// Rank is the operator's position within its generator, by error then
	// bytes then name.
	Rank int `json:"rank"`
}

// Overall is one operator's aggregate standing across all generators.
type Overall struct {
	Operator  string  `json:"operator"`
	MeanError float64 `json:"mean_error"`
	MeanBytes float64 `json:"mean_bytes"`
	Rank      int     `json:"rank"`
}

// Output is the leaderboard document.
type Output struct {
	Seed       int64     `json:"seed"`
	Seconds    int       `json:"seconds"`
	Rate       float64   `json:"rate"`
	Keys       int       `json:"keys"`
	WindowSec  int       `json:"window_sec"`
	Generators []string  `json:"generators"`
	Rows       []Row     `json:"rows"`
	Overall    []Overall `json:"overall"`
}

func main() {
	var (
		seconds = flag.Int("seconds", 8, "stream length in one-second batches")
		rate    = flag.Float64("rate", 4000, "arrival rate (tuples/second)")
		keys    = flag.Int("keys", 400, "key universe size")
		winSec  = flag.Int("window", 4, "sliding window length in seconds (slide 1s)")
		seed    = flag.Int64("seed", 1, "workload and hash seed")
		gens    = flag.String("generators", strings.Join(generatorNames, ","),
			"comma-separated generator sweep: "+strings.Join(generatorNames, ", "))
		format = flag.String("format", "json", `output format: "json" or "csv"`)
		out    = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	p := params{Seconds: *seconds, Rate: *rate, Keys: *keys, WindowSec: *winSec, Seed: *seed}
	for _, g := range strings.Split(*gens, ",") {
		if g = strings.TrimSpace(g); g != "" {
			p.Generators = append(p.Generators, g)
		}
	}
	res, err := run(p)
	if err != nil {
		fatal(err)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	switch *format {
	case "csv":
		err = writeCSV(w, res)
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		err = enc.Encode(res)
	default:
		err = fmt.Errorf("unknown format %q (want json or csv)", *format)
	}
	if err != nil {
		fatal(err)
	}
}

// run executes the sweep: one engine run per (generator, operator) pair,
// scored against its own exact window, ranked per generator and overall.
func run(p params) (*Output, error) {
	if p.Seconds < 1 || p.WindowSec < 1 || p.Keys < 2 || p.Rate <= 0 {
		return nil, fmt.Errorf("samplebench: bad parameters %+v", p)
	}
	if len(p.Generators) == 0 {
		return nil, fmt.Errorf("samplebench: no generators selected")
	}
	out := &Output{
		Seed: p.Seed, Seconds: p.Seconds, Rate: p.Rate, Keys: p.Keys,
		WindowSec: p.WindowSec, Generators: p.Generators,
	}
	for _, gen := range p.Generators {
		batches, err := materialize(gen, p)
		if err != nil {
			return nil, err
		}
		rows := make([]Row, 0, len(approx.Kinds()))
		for _, kind := range approx.Kinds() {
			row, err := runOne(gen, kind, p, batches)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		rankRows(rows)
		out.Rows = append(out.Rows, rows...)
	}
	out.Overall = overall(out.Rows)
	return out, nil
}

// materialize pre-generates the generator's batches so every operator
// runs over literally the same stream and timing excludes generation.
func materialize(gen string, p params) ([][]tuple.Tuple, error) {
	src, err := newGenerator(gen, p)
	if err != nil {
		return nil, err
	}
	batches := make([][]tuple.Tuple, p.Seconds)
	for i := range batches {
		start := tuple.Time(i) * tuple.Second
		ts, err := src.Slice(start, start+tuple.Second)
		if err != nil {
			return nil, fmt.Errorf("samplebench: %s batch %d: %w", gen, i, err)
		}
		batches[i] = ts
	}
	return batches, nil
}

// newGenerator builds one named workload: a key distribution plus a rate
// shape, seeded from the run seed.
func newGenerator(name string, p params) (*workload.Source, error) {
	horizon := tuple.Time(p.Seconds) * tuple.Second
	rate := workload.RateShape(workload.ConstantRate(p.Rate))
	var (
		keys workload.KeySampler
		err  error
	)
	switch name {
	case "zipf0.8":
		keys, err = workload.NewZipfSampler("k", p.Keys, 0.8)
	case "zipf2.0":
		keys, err = workload.NewZipfSampler("k", p.Keys, 2.0)
	case "hotset":
		keys, err = workload.NewHotSetSampler("k", max(p.Keys/50, 1), p.Keys, 0.9)
	case "drift":
		keys, err = workload.NewGrowingSampler("k", max(p.Keys/4, 1), p.Keys, 0, horizon)
	case "burst":
		keys, err = workload.NewZipfSampler("k", p.Keys, 1.0)
		rate = workload.StepRate{Initial: p.Rate, Steps: []workload.RateStep{
			{At: horizon / 3, Level: 4 * p.Rate},
			{At: horizon / 2, Level: p.Rate / 4},
			{At: 2 * horizon / 3, Level: p.Rate},
		}}
	default:
		return nil, fmt.Errorf("samplebench: unknown generator %q (want one of %s)",
			name, strings.Join(generatorNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	return &workload.Source{Name: name, Rate: rate, Keys: keys, Seed: p.Seed}, nil
}

// runOne drives one operator over the materialized stream through the
// real engine and scores it against the run's own exact window.
func runOne(gen string, kind approx.Kind, p params, batches [][]tuple.Tuple) (Row, error) {
	cfg := engine.Config{
		BatchInterval: tuple.Second,
		MapTasks:      4,
		ReduceTasks:   4,
		Cores:         4,
		Approx:        approx.Spec{Kind: kind, Seed: uint64(p.Seed)},
	}
	win := window.Sliding(tuple.Time(p.WindowSec)*tuple.Second, tuple.Second)
	eng, err := engine.New(cfg, engine.WordCount(win))
	if err != nil {
		return Row{}, fmt.Errorf("samplebench: %s/%s: %w", gen, kind, err)
	}
	tuples := 0
	start := time.Now()
	for i, ts := range batches {
		at := tuple.Time(i) * tuple.Second
		if _, err := eng.Step(ts, at, at+tuple.Second); err != nil {
			return Row{}, fmt.Errorf("samplebench: %s/%s batch %d: %w", gen, kind, i, err)
		}
		tuples += len(ts)
	}
	elapsed := time.Since(start)
	est := eng.ApproxState()
	row := Row{
		Generator: gen,
		Operator:  string(kind),
		Error:     accuracy(kind, est, eng.WindowSnapshot()),
		Bytes:     est.Bytes(),
	}
	if tuples > 0 {
		row.NsPerOp = float64(elapsed.Nanoseconds()) / float64(tuples)
	}
	return row, nil
}

// accuracy scores one finished operator against the exact window answer
// of the same run. Lower is better; 0 is a perfect answer.
func accuracy(kind approx.Kind, est *approx.Estimator, exact map[string]float64) float64 {
	switch kind {
	case approx.CountMinKind:
		// Mean relative point-query error over every live key.
		if len(exact) == 0 {
			return 0
		}
		var sum float64
		for key, truth := range exact {
			sum += math.Abs(est.Estimate(key)-truth) / math.Max(truth, 1)
		}
		return sum / float64(len(exact))
	case approx.HLLKind:
		return math.Abs(est.Distinct()-float64(len(exact))) / math.Max(float64(len(exact)), 1)
	default:
		// Space-Saving and the samplers rank keys: score 1 − recall@10,
		// the fraction of the true top-10 the operator failed to surface.
		truth := topTrue(exact, 10)
		if len(truth) == 0 {
			return 0
		}
		got := make(map[string]bool)
		for _, e := range est.TopK(10) {
			got[e.Key] = true
		}
		hits := 0
		for _, key := range truth {
			if got[key] {
				hits++
			}
		}
		return 1 - float64(hits)/float64(len(truth))
	}
}

// topTrue returns the exact window's top-k keys by value (ties broken by
// key, so the truth set is deterministic).
func topTrue(exact map[string]float64, k int) []string {
	keys := make([]string, 0, len(exact))
	for key := range exact {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if exact[keys[i]] != exact[keys[j]] {
			return exact[keys[i]] > exact[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	return keys
}

// rankRows orders one generator's rows by error, then bytes, then name,
// and stamps 1-based ranks. ns/op deliberately does not participate, so
// the ranking is deterministic for a seed.
func rankRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Error != rows[j].Error {
			return rows[i].Error < rows[j].Error
		}
		if rows[i].Bytes != rows[j].Bytes {
			return rows[i].Bytes < rows[j].Bytes
		}
		return rows[i].Operator < rows[j].Operator
	})
	for i := range rows {
		rows[i].Rank = i + 1
	}
}

// overall aggregates each operator's mean error and footprint across the
// generator sweep, ranked like the per-generator rows.
func overall(rows []Row) []Overall {
	type acc struct {
		err, bytes float64
		n          int
	}
	byOp := make(map[string]*acc)
	for _, r := range rows {
		a := byOp[r.Operator]
		if a == nil {
			a = &acc{}
			byOp[r.Operator] = a
		}
		a.err += r.Error
		a.bytes += float64(r.Bytes)
		a.n++
	}
	out := make([]Overall, 0, len(byOp))
	for op, a := range byOp {
		out = append(out, Overall{
			Operator:  op,
			MeanError: a.err / float64(a.n),
			MeanBytes: a.bytes / float64(a.n),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MeanError != out[j].MeanError {
			return out[i].MeanError < out[j].MeanError
		}
		if out[i].MeanBytes != out[j].MeanBytes {
			return out[i].MeanBytes < out[j].MeanBytes
		}
		return out[i].Operator < out[j].Operator
	})
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}

// writeCSV renders the per-generator rows as a flat CSV table.
func writeCSV(w io.Writer, res *Output) error {
	if _, err := fmt.Fprintln(w, "generator,operator,rank,error,bytes,ns_per_op"); err != nil {
		return err
	}
	for _, r := range res.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.6f,%d,%.1f\n",
			r.Generator, r.Operator, r.Rank, r.Error, r.Bytes, r.NsPerOp); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "samplebench:", err)
	os.Exit(1)
}
