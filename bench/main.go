// Command bench is the repository's end-to-end benchmark.
//
//	cd bench && go run . -workload zipf-hot -seed 1 -seconds 20 -trace 0
//	cd bench && go run . -reps 3 -trace 1 -out out/a.json   # every workload
//	cd bench && go run . -compare out/a.json out/b.json
//
// A run of one workload prints a text report on standard error and, as
// the last line of standard output, one JSON object holding the six
// end-to-end metrics (-trace 0) or the per-layer metrics of a traced
// run (-trace 1). Without -workload, every workload runs as a child
// process of its own, repetitions interleaved, and the medians are
// printed and written to -out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"prompt/bench/harness"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	reps     int
	out      string
	samples  string
	compare  bool
	work     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "generator seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "measuring time of one run, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and layer probes (bench/layers) and reports the per-layer metrics")
	flag.IntVar(&o.reps, "reps", 3, "repetitions of each workload when running them all; seeds are seed, seed+1, ...")
	flag.StringVar(&o.out, "out", "", "when running every workload: also write the results as JSON to this file")
	flag.StringVar(&o.samples, "samples", "", "with -workload: also write the per-round values of each metric as JSON to this file; the suite pools them")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments; exit 1 on a regression")
	flag.StringVar(&o.work, "work", filepath.Join("..", ".bench_build"), "directory for built binaries and socket directories; keep it short and relative")
	flag.Parse()

	// Shards are killed by pid on every way out, including ^C.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		harness.StopAllShards()
		os.Exit(130)
	}()

	code, err := run(o)
	harness.StopAllShards()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(o options) (int, error) {
	if o.compare {
		if flag.NArg() != 2 {
			return 2, fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if o.seconds < 1 {
		return 2, fmt.Errorf("-seconds must be at least 1")
	}
	if o.workload == "" {
		return runSuite(o)
	}
	w, ok := harness.WorkloadByName(o.workload)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q", o.workload)
	}
	promptd, buildTime, err := buildBinary(o.work, "promptd", "..", "./cmd/promptd")
	if err != nil {
		return 1, err
	}
	env := harness.Env{Promptd: promptd, TmpRoot: filepath.Join(o.work, "tmp")}
	if o.trace != 0 {
		return runTraced(w, o, env, buildTime)
	}
	fmt.Fprintf(os.Stderr, "driver.build_s=%.3f (one-off go build of promptd, not part of setup_s)\n", buildTime.Seconds())
	res, perRound, err := harness.RunEndToEnd(w, o.seed, float64(o.seconds), env, os.Stderr)
	if err != nil {
		return 1, err
	}
	if o.samples != "" {
		b, err := json.Marshal(perRound)
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(o.samples, b, 0o644); err != nil {
			return 1, err
		}
	}
	if err := harness.PrintLine(os.Stdout, res); err != nil {
		return 1, err
	}
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// buildBinary runs `go build -o <work>/bin/<name> <pkg>` in dir and
// returns the binary's path and how long the build took.
func buildBinary(work, name, dir, pkg string) (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(work, "bin", name))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = dir
	if outp, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build %s: %v\n%s", pkg, err, outp)
	}
	// The relative path keeps unix socket addresses short; the absolute
	// one was only for go build, which runs in another directory.
	return filepath.Join(work, "bin", name), time.Since(t0), nil
}
